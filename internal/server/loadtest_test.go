package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"io"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/obs/metrics"
)

// TestLoadProfile is the `make loadtest` harness: a fleet of concurrent
// clients drives an in-process htpd with a queue deliberately smaller than
// the offered load, retrying 429s after the server's Retry-After hint. It
// asserts the service-level contract under saturation:
//
//   - the certification gate never rejects a real solver's result;
//   - every job a client managed to submit reaches a terminal state, and
//     every completed job is verified;
//   - end-to-end latency stays bounded (p99 within the per-job budget plus
//     queueing slack);
//   - overload is shed by rejection, not by queue growth or wedged jobs.
//
// Scale via env: LOADTEST_JOBS (total jobs, default 200), LOADTEST_CLIENTS
// (concurrent clients, default 24 — comfortably above the 16-deep queue plus
// 4 workers, so the burst reliably trips admission control).
func TestLoadProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("load profile is not a -short test")
	}
	jobs := envInt("LOADTEST_JOBS", 200)
	clients := envInt("LOADTEST_CLIENTS", 24)

	certBefore := cCertFailures.Value()
	invBefore := cInvariantViolations.Value()
	rejBefore := cRejections.Value()
	histBefore := jobDurationSnapshot()

	const budget = 5 * time.Second
	_, ts := newTestServer(t, Config{
		Workers:       4,
		MaxQueue:      16, // well under the offered load: forces 429s
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		DefaultBudget: budget,
	})

	// Chorded rings are dense enough that a solve takes tens of
	// milliseconds — the burst below therefore genuinely outruns the
	// 4-worker drain rate and piles into the queue.
	nets := []string{chordRing(t, 160), chordRing(t, 224), chordRing(t, 288)}
	// Burst phase: the whole fleet is offered as fast as the clients can
	// push it, far outrunning the 16-deep queue, so admission control must
	// shed load with 429s that the clients honour and retry.
	var (
		mu       sync.Mutex
		ids      []string
		rejected atomic.Int64
	)
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				spec := JobSpec{
					Netlist: nets[i%len(nets)],
					Height:  3 + i%2,
					Seed:    int64(i + 1),
					Iters:   3,
				}
				id := submitWithRetry(t, ts, spec, &rejected)
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	// Drain phase: every accepted job must terminate; latency is measured
	// from the server's own submit/finish timestamps, so queueing time under
	// overload counts against the percentile.
	var latencies []time.Duration
	states := map[JobState]int{}
	for _, id := range ids {
		v := waitTerminal(t, ts, id, budget+30*time.Second)
		if v.State == StateDone && !v.Verified {
			t.Errorf("job %s done but unverified", id)
		}
		if v.FinishedAt == nil {
			t.Fatalf("terminal job %s has no finish timestamp", id)
		}
		latencies = append(latencies, v.FinishedAt.Sub(v.SubmittedAt))
		states[v.State]++
	}

	if d := cCertFailures.Value() - certBefore; d != 0 {
		t.Fatalf("certification gate rejected %d results under load", d)
	}
	if d := cInvariantViolations.Value() - invBefore; d != 0 {
		t.Fatalf("%d terminal-state invariant violations under load", d)
	}
	if len(latencies) != jobs {
		t.Fatalf("completed %d jobs, want %d", len(latencies), jobs)
	}
	if states[StateDone] != jobs {
		t.Fatalf("states %v: every job should complete done under healthy solvers", states)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := latencies[len(latencies)/2]
	p99 := latencies[len(latencies)*99/100]
	// Bound: a job may wait through the queue plus its own budget. With 4
	// workers, a 16-deep queue and sub-second solves, real p99 is far lower;
	// the assertion is a wedge detector, not a performance target.
	if limit := budget + 30*time.Second; p99 > limit {
		t.Fatalf("p99 latency %v exceeds bound %v", p99, limit)
	}
	rejects := cRejections.Value() - rejBefore
	if rejects == 0 {
		t.Log("note: no 429s fired; offered load never outran the queue on this machine")
	}

	// The /metrics histogram must agree with the latencies the clients saw:
	// same population (finish − submit, recorded by finishJob), so its
	// interpolated quantiles must land within the bucketing error of the
	// measured percentiles. Buckets grow by 1.15x, so 20% is a safe bound;
	// the absolute floor forgives sub-bucket jitter on near-instant solves.
	histDelta := snapshotSub(jobDurationSnapshot(), histBefore)
	if histDelta.Count != uint64(jobs) {
		t.Fatalf("job duration histogram grew by %d observations, want %d", histDelta.Count, jobs)
	}
	for _, qt := range []struct {
		q        float64
		measured time.Duration
	}{{0.50, p50}, {0.99, p99}} {
		got := snapshotQuantile(histDelta, qt.q)
		want := qt.measured.Seconds()
		if diff := math.Abs(got - want); diff > 0.20*want && diff > 0.005 {
			t.Errorf("histogram q%v = %.4fs, measured %.4fs: off by more than 20%%", qt.q, got, want)
		}
	}

	// And the exposition endpoint serves it, per-rung, alongside the
	// gauges and every counter of the solver and the daemon, each with its
	// HELP and TYPE lines.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	wants := []string{
		"# TYPE htpd_job_duration_seconds histogram",
		`htpd_job_duration_seconds_count{rung=`,
		`htpd_job_duration_seconds_bucket{rung=`,
		"# TYPE htpd_queue_depth gauge",
		"# TYPE htpd_in_flight gauge",
	}
	for _, c := range []string{
		"htp_metric_rounds", "htp_metric_injections", "htp_metric_growths", "htp_solver_salvages",
		"htpd_jobs_submitted", "htpd_rejections_overload", "htpd_rejections_oversized",
		"htpd_retries", "htpd_degradations", "htpd_salvage_serves", "htpd_cert_failures",
		"htpd_jobs_done", "htpd_jobs_failed", "htpd_jobs_cancelled", "htpd_jobs_recovered",
		"htpd_invariant_violations", "htpd_events_dropped",
	} {
		wants = append(wants, "# HELP "+c+" ", "# TYPE "+c+" counter\n"+c+" ")
	}
	for _, want := range wants {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	t.Logf("load profile: %d jobs, %d clients: p50=%v p99=%v max=%v; %d overload rejections (%d client retries)",
		jobs, clients, p50.Round(time.Millisecond), p99.Round(time.Millisecond),
		latencies[len(latencies)-1].Round(time.Millisecond), rejects, rejected.Load())
}

// submitWithRetry submits, honouring 429 Retry-After (capped well below the
// server's hint to keep the test fast — the header is still required).
func submitWithRetry(tb testing.TB, ts *httptest.Server, spec JobSpec, rejected *atomic.Int64) string {
	tb.Helper()
	for {
		resp := submitJob(tb, ts, spec)
		switch resp.StatusCode {
		case http.StatusAccepted:
			var out struct {
				ID string `json:"id"`
			}
			err := jsonDecode(resp, &out)
			if err != nil {
				tb.Fatalf("decoding submit response: %v", err)
			}
			return out.ID
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				tb.Fatal("429 without Retry-After")
			}
			resp.Body.Close()
			rejected.Add(1)
			time.Sleep(10 * time.Millisecond)
		default:
			resp.Body.Close()
			tb.Fatalf("submit: unexpected code %d", resp.StatusCode)
		}
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// chordRing renders an n-node ring with skip-7 chords: dense enough that a
// solve costs real work, small enough to stay fast in aggregate.
func chordRing(tb testing.TB, n int) string {
	tb.Helper()
	var b hypergraph.Builder
	b.AddUnitNodes(n)
	for i := 0; i < n; i++ {
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID((i+1)%n))
		b.AddNet("", 1, hypergraph.NodeID(i), hypergraph.NodeID((i+7)%n))
	}
	h, err := b.Build()
	if err != nil {
		tb.Fatalf("building chord ring: %v", err)
	}
	var sb strings.Builder
	if err := h.Write(&sb); err != nil {
		tb.Fatalf("rendering chord ring: %v", err)
	}
	return sb.String()
}

// jobDurationSnapshot merges mJobDuration across its rung labels into one
// snapshot, so before/after deltas cover whatever rungs the run used.
func jobDurationSnapshot() metrics.HistogramSnapshot {
	s := metrics.NewHistogram(metrics.DurationBuckets()).Snapshot()
	for _, l := range mJobDuration.Labels() {
		s = snapshotMerge(s, mJobDuration.With(l).Snapshot())
	}
	return s
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}
