package server

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/anytime"
	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// TestFinishedJobReleasesSolveState checks every way a job finishes: the
// job drops its parsed netlist, hierarchy spec, span minter and inline
// netlist text, its event backlog holds no append slack, and it still
// serves its status, its result and its event replay.
func TestFinishedJobReleasesSolveState(t *testing.T) {
	net := ringNetlist(t, 16)
	t.Run("done", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, DefaultBudget: 20 * time.Second})
		id := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		checkFinished(t, s, ts, id, StateDone, 1)
	})
	t.Run("failed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{
			Workers:       1,
			DefaultBudget: 20 * time.Second,
			Solver: func(context.Context, *hypergraph.Hypergraph, hierarchy.Spec, htp.Pipeline) (*htp.Result, float64, error) {
				return nil, 0, anytime.ErrInvalidSpec
			},
		})
		id := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		checkFinished(t, s, ts, id, StateFailed, 1)
	})
	t.Run("cancelled while running", func(t *testing.T) {
		s, ts := newTestServer(t, Config{
			Workers:       1,
			DefaultBudget: 20 * time.Second,
			Solver: func(ctx context.Context, _ *hypergraph.Hypergraph, _ hierarchy.Spec, _ htp.Pipeline) (*htp.Result, float64, error) {
				<-ctx.Done()
				return nil, 0, ctx.Err()
			},
		})
		id := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		waitRunning(t, ts, id, 5*time.Second)
		cancelJob(t, ts, id)
		checkFinished(t, s, ts, id, StateCancelled, 1)
	})
	t.Run("cancelled while queued", func(t *testing.T) {
		release := make(chan struct{})
		s, ts := newTestServer(t, Config{
			Workers:       1,
			DefaultBudget: 20 * time.Second,
			Solver:        blockingSolver(release),
		})
		id1 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		waitRunning(t, ts, id1, 5*time.Second)
		id2 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		cancelJob(t, ts, id2)
		close(release)
		checkFinished(t, s, ts, id2, StateCancelled, 0)
		checkFinished(t, s, ts, id1, StateDone, 1)
	})
	t.Run("panicked", func(t *testing.T) {
		// A trace sink that panics on the job-level stop sends the runner
		// into its panic recovery after the terminal transition.
		s, ts := newTestServer(t, Config{
			Workers:       1,
			DefaultBudget: 20 * time.Second,
			Trace:         panicOnStop{},
		})
		id := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
		checkFinished(t, s, ts, id, StateDone, 1)
	})
	t.Run("resurrected", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{
			Workers:       1,
			DefaultBudget: 20 * time.Second,
			JournalPath:   filepath.Join(dir, "jobs.jsonl"),
			ResultDir:     dir,
		}
		s1, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s1.Start()
		ts1 := httptest.NewServer(s1.Handler())
		id := submitOK(t, ts1, JobSpec{Netlist: net, Height: 2})
		checkFinished(t, s1, ts1, id, StateDone, 1)
		ts1.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s1.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		s2, ts2 := newTestServer(t, cfg)
		checkFinished(t, s2, ts2, id, StateDone, 0)
	})
}

// panicOnStop is a trace sink that panics on every stop event.
type panicOnStop struct{}

func (panicOnStop) Event(e obs.Event) {
	if e.Kind == obs.KindStop {
		panic("trace sink panicked on the stop event")
	}
}

func cancelJob(tb testing.TB, ts *httptest.Server, id string) {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		tb.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("cancel: code %d", resp.StatusCode)
	}
}

// checkFinished waits for job id to finish in state want with its event
// stream closed, checks that it released its solve-only state, and checks
// what it serves: its status, a certified dump for a done job (404
// otherwise), and an event replay carrying stops stop events.
func checkFinished(tb testing.TB, s *Server, ts *httptest.Server, id string, want JobState, stops int) {
	tb.Helper()
	v := waitTerminal(tb, ts, id, 30*time.Second)
	if v.State != want {
		tb.Fatalf("job %s: state %q (error %q), want %q", id, v.State, v.Error, want)
	}
	j := s.lookup(id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.hub.mu.Lock()
		closed, n, c := j.hub.closed, len(j.hub.log), cap(j.hub.log)
		j.hub.mu.Unlock()
		if closed {
			if n != c {
				tb.Errorf("job %s: event backlog len %d cap %d, want no append slack", id, n, c)
			}
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s: event stream still open", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	j.mu.Lock()
	h, spans, levels, text := j.h, j.spans, j.pspec.Height(), len(j.Spec.Netlist)
	j.mu.Unlock()
	if h != nil || spans != nil || levels != 0 || text != 0 {
		tb.Errorf("job %s keeps solve-only state: netlist parsed %v, span minter %v, %d spec levels, %d netlist bytes",
			id, h != nil, spans != nil, levels, text)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		tb.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if want != StateDone {
		if resp.StatusCode != http.StatusNotFound {
			tb.Errorf("job %s (%s): result code %d, want 404", id, want, resp.StatusCode)
		}
	} else {
		dump, err := hierarchy.ReadDump(resp.Body)
		if err != nil {
			tb.Fatalf("job %s: decoding result: %v", id, err)
		}
		if !v.Verified || dump.Cost != v.Cost {
			tb.Errorf("job %s: verified %v, served cost %v, status cost %v", id, v.Verified, dump.Cost, v.Cost)
		}
	}

	sse, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		tb.Fatalf("GET events: %v", err)
	}
	defer sse.Body.Close()
	got := 0
	sc := bufio.NewScanner(sse.Body)
	for sc.Scan() {
		if sc.Text() == "event: "+string(obs.KindStop) {
			got++
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatalf("job %s: reading event replay: %v", id, err)
	}
	if got != stops {
		tb.Errorf("job %s: event replay carries %d stop events, want %d", id, got, stops)
	}
}

// heapInuse returns the heap's in-use bytes after two collections: the
// first frees what became unreachable, the second what only the first
// one's finalizers still held.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// retainedBytesPerJob bounds the live heap a finished 64-node job keeps:
// its status fields, its certified dump and its event backlog, 6.2–7.0 KB
// over 25 runs (2-CPU x86-64 Linux, Go 1.24). Keeping the parsed netlist,
// the hierarchy spec, the inline netlist text and the backlog's append
// slack as well measured 23.9–27.3 KB over 20 runs.
const retainedBytesPerJob = 12 << 10

// TestRetainedHeapPerFinishedJob runs jobs of the 64-node clustered netlist
// the svc-tiny benchmark submits through the HTTP API, with a journal and a
// result directory, and bounds the live heap each finished job leaves
// behind.
func TestRetainedHeapPerFinishedJob(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are meaningless under -race")
	}
	const jobs = 500
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Workers:       2,
		DefaultBudget: 20 * time.Second,
		JournalPath:   filepath.Join(dir, "jobs.jsonl"),
		ResultDir:     dir,
	})
	var sb strings.Builder
	if err := circuits.Clustered(4, 16, 0.3, 1).Write(&sb); err != nil {
		t.Fatal(err)
	}
	netlist := sb.String()
	run := func(from, n int) {
		for i := from; i < from+n; i++ {
			id := submitOK(t, ts, JobSpec{Netlist: netlist, Seed: int64(i + 1)})
			if v := waitTerminal(t, ts, id, 30*time.Second); v.State != StateDone {
				t.Fatalf("job %s: state %q (error %q)", id, v.State, v.Error)
			}
		}
	}
	// Warm up the client connection, the runtime's pools and the latency
	// histogram's series before measuring.
	run(0, 20)
	before := heapInuse()
	run(20, jobs)
	after := heapInuse()
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("retained heap: %.0f B per finished job (%d jobs)", perJob, jobs)
	if perJob > retainedBytesPerJob {
		t.Fatalf("a finished job retains %.0f B of heap, want at most %d", perJob, retainedBytesPerJob)
	}
}
