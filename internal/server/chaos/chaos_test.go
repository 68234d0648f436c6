package chaos_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/obs/metrics"
	"repro/internal/server"
	"repro/internal/server/chaos"
)

// chaosJobs is the fleet size of the end-to-end run. Each job is small, so
// the run exercises scheduling, injection, and recovery breadth rather than
// solver depth.
const chaosJobs = 220

// counter reads one sample from the process metrics registry, the
// document htpd serves at /metrics. A name the registry does not carry
// fails the test, so a misspelled or renamed counter cannot pass the
// invariant checks vacuously.
func counter(tb testing.TB, name string) uint64 {
	tb.Helper()
	var b strings.Builder
	if err := metrics.Default.WritePrometheus(&b); err != nil {
		tb.Fatalf("rendering metrics: %v", err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				tb.Fatalf("metric %s: %v", name, err)
			}
			return n
		}
	}
	tb.Fatalf("metrics registry has no sample %q", name)
	return 0
}

func ringNetlist(tb testing.TB, n int) string {
	tb.Helper()
	var b hypergraph.Builder
	b.AddUnitNodes(n)
	for i := 0; i < n; i++ {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID((i+1)%n))
	}
	h, err := b.Build()
	if err != nil {
		tb.Fatalf("building ring: %v", err)
	}
	var sb strings.Builder
	if err := h.Write(&sb); err != nil {
		tb.Fatalf("rendering ring: %v", err)
	}
	return sb.String()
}

func submit(tb testing.TB, ts *httptest.Server, spec server.JobSpec) (string, int) {
	tb.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out.ID, resp.StatusCode
}

func getStatus(tb testing.TB, ts *httptest.Server, id string) server.StatusView {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		tb.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var v server.StatusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		tb.Fatalf("decoding status: %v", err)
	}
	return v
}

// TestChaosEndToEnd drives a fleet of jobs through a solver stack that
// panics, fails, stalls, and spuriously cancels on a deterministic schedule,
// and asserts the daemon's hard invariants:
//
//  1. every job reaches a terminal state (nothing wedges);
//  2. the exactly-one-terminal-transition invariant never trips;
//  3. every result served is independently re-checkable — the partition
//     reconstructs over the submitted netlist, validates, and its recomputed
//     cost matches the served cost (nothing uncertified escapes);
//  4. after shutdown the process is back to its original goroutine count
//     (no leaked workers, timers, or SSE fan-outs).
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet run is not a -short test")
	}
	goroutinesBefore := runtime.NumGoroutine()
	invariantsBefore := counter(t, "htpd_invariant_violations")
	certFailuresBefore := counter(t, "htpd_cert_failures")

	harness := chaos.New(chaos.Config{
		PanicEvery:  7,
		FailEvery:   5,
		DelayEvery:  11,
		Delay:       10 * time.Millisecond,
		CancelEvery: 13,
		CancelAfter: 2 * time.Millisecond,
		PoisonNodes: 20, // 20-node instances are unsolvable by fiat
		StallNodes:  36, // 36-node instances block until cancelled
	})
	dir := t.TempDir()
	s, err := server.New(server.Config{
		Workers:       4,
		MaxQueue:      chaosJobs + 8,
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		DefaultBudget: 5 * time.Second,
		JournalPath:   filepath.Join(dir, "jobs.jsonl"),
		ResultDir:     dir,
		Solver:        harness.Solve,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())

	// A mixed fleet: sizes, heights, and seeds vary; every seventh job gets
	// a starvation budget to force the degradation ladder; every eleventh
	// is a poisoned 20-node instance that must exhaust its ladder and fail;
	// a tail batch is cancelled while still queued.
	specs := make(map[string]server.JobSpec, chaosJobs)
	nets := map[int]string{}
	for _, n := range []int{8, 12, 16, 20, 24, 32, 36} {
		nets[n] = ringNetlist(t, n)
	}
	sizes := []int{8, 12, 16, 24, 32}
	var stallIDs []string
	for i := 0; i < chaosJobs; i++ {
		spec := server.JobSpec{
			Netlist: nets[sizes[i%len(sizes)]],
			Height:  2 + i%2,
			Seed:    int64(i + 1),
			Label:   fmt.Sprintf("chaos-%03d", i),
		}
		switch {
		case i%44 == 9:
			// Stalled: blocks until cancelled (generous budget so the
			// deadline cannot beat the cancel below).
			spec.Netlist = nets[36]
			spec.BudgetMS = 60_000
		case i%11 == 3:
			spec.Netlist = nets[20] // poisoned
		case i%7 == 0:
			spec.BudgetMS = 60
		}
		id, code := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit code %d", i, code)
		}
		specs[id] = spec
		if spec.Netlist == nets[36] {
			stallIDs = append(stallIDs, id)
		}
	}
	// Cancel every stalled job: whether still queued or already blocking a
	// worker, cancellation is its only exit, so both cancel paths are
	// exercised and the outcome is deterministic.
	for _, id := range stallIDs {
		resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatalf("POST cancel: %v", err)
		}
		resp.Body.Close()
	}

	// Wait for the whole fleet to terminate.
	deadline := time.Now().Add(3 * time.Minute)
	pending := make(map[string]bool, len(specs))
	for id := range specs {
		pending[id] = true
	}
	final := map[string]server.StatusView{}
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still not terminal after 3m (e.g. %v)", len(pending), firstKey(pending))
		}
		for id := range pending {
			v := getStatus(t, ts, id)
			if v.State.Terminal() {
				final[id] = v
				delete(pending, id)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 2: the terminal-transition guard never fired.
	if d := counter(t, "htpd_invariant_violations") - invariantsBefore; d != 0 {
		t.Fatalf("invariant violations during chaos run: %d", d)
	}
	// The certification gate rejecting a real solver's output would be a
	// solver bug, not chaos: it must stay quiet.
	if d := counter(t, "htpd_cert_failures") - certFailuresBefore; d != 0 {
		t.Errorf("certification gate rejected %d real-solver results", d)
	}

	// Invariant 3: everything served re-verifies from scratch.
	done, failed, cancelled, served := 0, 0, 0, 0
	for id, v := range final {
		switch v.State {
		case server.StateDone:
			done++
		case server.StateFailed:
			failed++
		case server.StateCancelled:
			cancelled++
		}
		if v.State == server.StateDone && !v.Verified {
			t.Fatalf("job %s done but not verified", id)
		}
		if !v.Verified {
			continue
		}
		served++
		verifyServedResult(t, ts, id, specs[id])
	}
	t.Logf("fleet: %d done, %d failed, %d cancelled; %d results served; chaos stats %+v",
		done, failed, cancelled, served, harness.Stats())
	if done == 0 {
		t.Fatal("chaos drowned every job; injection rates leave no room for success")
	}
	if failed == 0 {
		t.Fatal("no job failed; the poisoned instances should have exhausted their ladders")
	}
	if cancelled == 0 {
		t.Fatal("no job cancelled; the tail-batch cancels did not land")
	}
	if st := harness.Stats(); st.Panics == 0 || st.Failures == 0 || st.Cancels == 0 || st.Delays == 0 || st.Poisons == 0 {
		t.Fatalf("some faults never fired: %+v", st)
	}

	// Invariant 4: shutdown returns the process to its baseline goroutine
	// count (polled: runtime bookkeeping lags).
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	waitGoroutines(t, goroutinesBefore)
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

// verifyServedResult is the client-side re-certification: reconstruct the
// served partition over the submitted netlist, validate it, and recompute
// its cost.
func verifyServedResult(tb testing.TB, ts *httptest.Server, id string, spec server.JobSpec) {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		tb.Fatalf("GET result %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("job %s marked verified but result gave %d", id, resp.StatusCode)
	}
	dump, err := hierarchy.ReadDump(resp.Body)
	if err != nil {
		tb.Fatalf("job %s: decoding served dump: %v", id, err)
	}
	h, err := hypergraph.ReadFrom(strings.NewReader(spec.Netlist))
	if err != nil {
		tb.Fatalf("job %s: re-parsing netlist: %v", id, err)
	}
	p, err := dump.Partition(h)
	if err != nil {
		tb.Fatalf("job %s: served partition does not reconstruct: %v", id, err)
	}
	if err := p.Validate(); err != nil {
		tb.Fatalf("job %s: served partition invalid: %v", id, err)
	}
	if got := p.Cost(); got != dump.Cost {
		tb.Fatalf("job %s: recomputed cost %g != served %g", id, got, dump.Cost)
	}
}

func waitGoroutines(tb testing.TB, baseline int) {
	tb.Helper()
	// Allow a little slack for runtime/test harness goroutines, but a leaked
	// worker pool or SSE fan-out (4+ goroutines) must trip this.
	const slack = 3
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			tb.Fatalf("goroutines leaked: %d now vs %d at start\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosRestartRecovery kills the daemon mid-fleet (graceful shutdown
// with jobs queued and running), restarts it over the same journal with a
// healthy solver stack, and asserts from the journal itself that every job
// was submitted once and terminated exactly once across both incarnations.
func TestChaosRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos restart run is not a -short test")
	}
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.jsonl")
	const fleet = 48

	harness := chaos.New(chaos.Config{
		PanicEvery: 4,
		FailEvery:  3,
		DelayEvery: 2,
		Delay:      20 * time.Millisecond,
	})
	s1, err := server.New(server.Config{
		Workers:       2,
		MaxQueue:      fleet + 4,
		MaxAttempts:   3,
		BaseBackoff:   5 * time.Millisecond,
		DefaultBudget: 10 * time.Second,
		JournalPath:   journalPath,
		Solver:        harness.Solve,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	net := ringNetlist(t, 16)
	ids := make([]string, 0, fleet)
	for i := 0; i < fleet; i++ {
		id, code := submit(t, ts1, server.JobSpec{Netlist: net, Height: 2, Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit code %d", i, code)
		}
		ids = append(ids, id)
	}
	// Let a slice of the fleet finish, then pull the plug.
	time.Sleep(150 * time.Millisecond)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}

	// Second incarnation: same journal, healthy solvers.
	s2, err := server.New(server.Config{
		Workers:       4,
		DefaultBudget: 10 * time.Second,
		JournalPath:   journalPath,
	})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Errorf("second Shutdown: %v", err)
		}
	}()

	// Jobs terminal before the restart are served from the first run's
	// journal and not resurrected; everything else must terminate now.
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		resp, err := http.Get(ts2.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusNotFound {
			continue // finished in the first incarnation
		}
		for {
			v := getStatus(t, ts2, id)
			if v.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("recovered job %s stuck in %q", id, v.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The journal is the ground truth across incarnations: one submit and
	// exactly one terminal record per job.
	submits, terminals := journalHistogram(t, journalPath)
	for _, id := range ids {
		if submits[id] != 1 {
			t.Errorf("job %s: %d submit records, want 1", id, submits[id])
		}
		if terminals[id] != 1 {
			t.Errorf("job %s: %d terminal records across restarts, want exactly 1", id, terminals[id])
		}
	}
}

// journalHistogram counts submit and terminal-state records per job ID.
func journalHistogram(tb testing.TB, path string) (submits, terminals map[string]int) {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatalf("opening journal: %v", err)
	}
	defer f.Close()
	submits, terminals = map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec struct {
			Op    string          `json:"op"`
			ID    string          `json:"id"`
			State server.JobState `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			tb.Fatalf("journal line corrupt: %v", err)
		}
		switch {
		case rec.Op == "submit":
			submits[rec.ID]++
		case rec.Op == "state" && rec.State.Terminal():
			terminals[rec.ID]++
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return submits, terminals
}
