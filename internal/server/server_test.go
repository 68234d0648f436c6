package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anytime"
	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/obs"
)

// ringNetlist renders an n-node ring (each node tied to its successor) in
// the extended hMETIS text format — the smallest connected instance family
// that exercises every solver rung.
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

// newTestServer builds, starts, and registers cleanup for a Server plus an
// httptest front end.
func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			tb.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

// submitJob posts spec and returns the response. Callers check the code.
func submitJob(tb testing.TB, ts *httptest.Server, spec JobSpec) *http.Response {
	tb.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		tb.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatalf("POST /jobs: %v", err)
	}
	return resp
}

// submitOK posts spec expecting 202 and returns the job ID.
func submitOK(tb testing.TB, ts *httptest.Server, spec JobSpec) string {
	tb.Helper()
	resp := submitJob(tb, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		tb.Fatalf("submit: got %d, want 202 (%s)", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		tb.Fatalf("decoding submit response: %v", err)
	}
	if out.ID == "" {
		tb.Fatal("submit returned empty id")
	}
	return out.ID
}

// getStatus fetches /jobs/{id}.
func getStatus(tb testing.TB, ts *httptest.Server, id string) StatusView {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		tb.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("GET status: code %d", resp.StatusCode)
	}
	var v StatusView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		tb.Fatalf("decoding status: %v", err)
	}
	return v
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(tb testing.TB, ts *httptest.Server, id string, within time.Duration) StatusView {
	tb.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getStatus(tb, ts, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s stuck in state %q after %v", id, v.State, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRunResult(t *testing.T) {
	before := cSubmitted.Value()
	s, ts := newTestServer(t, Config{Workers: 2, DefaultBudget: 20 * time.Second})
	spec := JobSpec{Netlist: ringNetlist(t, 32), Height: 3, Seed: 7, Label: "ring32"}
	id := submitOK(t, ts, spec)

	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", v.State, v.Error)
	}
	if !v.Verified {
		t.Fatal("served result not marked verified")
	}
	if v.Stage == "" || v.Stop == "" {
		t.Fatalf("terminal status missing stage/stop: %+v", v)
	}
	if v.Label != "ring32" {
		t.Fatalf("label = %q", v.Label)
	}
	if cSubmitted.Value() <= before {
		t.Fatal("jobs_submitted counter did not advance")
	}

	// The served result decodes, reconstructs over the submitted netlist,
	// and revalidates — the client-side mirror of the server's own
	// certification gate.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: code %d", resp.StatusCode)
	}
	dump, err := hierarchy.ReadDump(resp.Body)
	if err != nil {
		t.Fatalf("decoding result dump: %v", err)
	}
	h, err := hypergraph.ReadFrom(strings.NewReader(spec.Netlist))
	if err != nil {
		t.Fatalf("re-parsing netlist: %v", err)
	}
	p, err := dump.Partition(h)
	if err != nil {
		t.Fatalf("reconstructing partition: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("served partition invalid: %v", err)
	}
	if got := p.Cost(); got != dump.Cost {
		t.Fatalf("recomputed cost %g != served cost %g", got, dump.Cost)
	}

	// Exactly one terminal transition.
	if n := terminalCount(s, id); n != 1 {
		t.Fatalf("job saw %d terminal transitions, want 1", n)
	}

	// The job shows up in the listing.
	lresp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []StatusView `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != id {
		t.Fatalf("list = %+v, want the one job", list.Jobs)
	}
}

func terminalCount(s *Server, id string) int {
	j := s.lookup(id)
	if j == nil {
		return -1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminally
}

// blockingSolver returns a solver whose FLOW rungs park until release is
// closed (or the rung deadline fires), then defers to the real solver.
func blockingSolver(release <-chan struct{}) func(context.Context, *hypergraph.Hypergraph, hierarchy.Spec, htp.Pipeline) (*htp.Result, float64, error) {
	return func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
		if p.Algo != "gfm" {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return htp.PipelineCtx(ctx, h, spec, p)
	}
}

// salvagePipeline reports whether p is the salvage rung's pipeline: flat
// FLOW with one iteration (the flow rung runs JobSpec.Iters, default 2).
func salvagePipeline(p htp.Pipeline) bool {
	return p.Algo == "" && p.Multilevel == nil && p.Flow.Iterations == 1
}

func TestOverloadRejectsWithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	rejBefore := cRejections.Value()
	_, ts := newTestServer(t, Config{
		Workers:       1,
		MaxQueue:      1,
		DefaultBudget: 20 * time.Second,
		Solver:        blockingSolver(release),
	})
	net := ringNetlist(t, 8)

	// First job occupies the worker; wait until it leaves the queue.
	id1 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
	waitRunning(t, ts, id1, 5*time.Second)
	// Second fills the queue.
	id2 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})

	// Third must bounce with 429 and a Retry-After hint.
	resp := submitJob(t, ts, JobSpec{Netlist: net, Height: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if cRejections.Value() <= rejBefore {
		t.Fatal("rejections counter did not advance")
	}

	close(release)
	for _, id := range []string{id1, id2} {
		if v := waitTerminal(t, ts, id, 30*time.Second); v.State != StateDone {
			t.Fatalf("job %s: state %q (error %q)", id, v.State, v.Error)
		}
	}
}

func waitRunning(tb testing.TB, ts *httptest.Server, id string, within time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(within)
	for {
		v := getStatus(tb, ts, id)
		if v.State == StateRunning {
			return
		}
		if v.State.Terminal() {
			tb.Fatalf("job %s terminal (%s) before running", id, v.State)
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never started running", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOversizedInstanceRejected(t *testing.T) {
	before := cOversized.Value()
	_, ts := newTestServer(t, Config{Workers: 1, MaxNodes: 8})
	resp := submitJob(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: code %d, want 413", resp.StatusCode)
	}
	if cOversized.Value() <= before {
		t.Fatal("oversized counter did not advance")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: code %d, want 400", resp.StatusCode)
	}

	for name, spec := range map[string]JobSpec{
		"empty netlist":   {Netlist: "   "},
		"bad netlist":     {Netlist: "this is not hmetis"},
		"negative height": {Netlist: ringNetlist(t, 8), Height: -3},
		"negative iters":  {Netlist: ringNetlist(t, 8), Iters: -1},
	} {
		resp := submitJob(t, ts, spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, resp.StatusCode)
		}
	}

	for _, path := range []string{"/jobs/j-999999", "/jobs/j-999999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestDegradationFallsToGFM(t *testing.T) {
	degBefore := cDegradations.Value()
	_, ts := newTestServer(t, Config{
		Workers:       1,
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		DefaultBudget: 20 * time.Second,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if p.Algo != "gfm" {
				return nil, 0, errors.New("synthetic transient failure")
			}
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state %q (error %q), want done", v.State, v.Error)
	}
	if v.Stage != "gfm" {
		t.Fatalf("stage = %q, want gfm", v.Stage)
	}
	if v.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", v.Degradations)
	}
	if v.Retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (flow should have retried before degrading)", v.Retries)
	}
	if cDegradations.Value() <= degBefore {
		t.Fatal("degradations counter did not advance")
	}
}

// TestMultilevelLadderAboveThreshold pins the size-based ladder switch: a
// job at or above MultilevelNodes is served by the leading multilevel rung
// (still certified), while a smaller job keeps the flat ladder.
func TestMultilevelLadderAboveThreshold(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:         1,
		DefaultBudget:   20 * time.Second,
		MultilevelNodes: 64,
	})
	big := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 96), Height: 3})
	small := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 32), Height: 3})
	vb := waitTerminal(t, ts, big, 30*time.Second)
	if vb.State != StateDone {
		t.Fatalf("big job state %q (error %q), want done", vb.State, vb.Error)
	}
	if vb.Stage != "multilevel" {
		t.Fatalf("big job stage = %q, want multilevel", vb.Stage)
	}
	if !vb.Verified {
		t.Fatal("multilevel result not marked verified")
	}
	vs := waitTerminal(t, ts, small, 30*time.Second)
	if vs.State != StateDone {
		t.Fatalf("small job state %q (error %q), want done", vs.State, vs.Error)
	}
	if vs.Stage != "flow" {
		t.Fatalf("small job stage = %q, want flow", vs.Stage)
	}
}

// TestFlowRefineLadder pins the Config.FlowRefine upgrade: a big job is
// served by the "mlf" rung (V-cycle plus flow refinement, still certified),
// the solver actually receives the FlowRefine option, and small jobs keep
// the flat ladder untouched.
func TestFlowRefineLadder(t *testing.T) {
	var sawFlowRefine atomic.Bool
	_, ts := newTestServer(t, Config{
		Workers:         1,
		DefaultBudget:   20 * time.Second,
		MultilevelNodes: 64,
		FlowRefine:      true,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if p.Multilevel != nil && p.FlowRefine != nil {
				sawFlowRefine.Store(true)
			}
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	big := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 96), Height: 3})
	small := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 32), Height: 3})
	vb := waitTerminal(t, ts, big, 30*time.Second)
	if vb.State != StateDone {
		t.Fatalf("big job state %q (error %q), want done", vb.State, vb.Error)
	}
	if vb.Stage != "mlf" {
		t.Fatalf("big job stage = %q, want mlf", vb.Stage)
	}
	if !vb.Verified {
		t.Fatal("mlf result not marked verified")
	}
	if !sawFlowRefine.Load() {
		t.Fatal("mlf rung ran without Pipeline.FlowRefine set")
	}
	vs := waitTerminal(t, ts, small, 30*time.Second)
	if vs.State != StateDone {
		t.Fatalf("small job state %q (error %q), want done", vs.State, vs.Error)
	}
	if vs.Stage != "flow" {
		t.Fatalf("small job stage = %q, want flow", vs.Stage)
	}
}

// TestMultilevelLadderDegrades pins that a failing multilevel rung falls
// back to flat FLOW rather than failing the job.
func TestMultilevelLadderDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:         1,
		MaxAttempts:     2,
		BaseBackoff:     time.Millisecond,
		DefaultBudget:   20 * time.Second,
		MultilevelNodes: 64,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if p.Multilevel != nil {
				return nil, 0, errors.New("synthetic multilevel failure")
			}
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 96), Height: 3})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state %q (error %q), want done", v.State, v.Error)
	}
	if v.Stage != "flow" {
		t.Fatalf("stage = %q, want flow", v.Stage)
	}
	if v.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", v.Degradations)
	}
}

func TestPermanentErrorFailsFast(t *testing.T) {
	gfmCalled := make(chan struct{}, 1)
	_, ts := newTestServer(t, Config{
		Workers:       1,
		MaxAttempts:   5,
		DefaultBudget: 20 * time.Second,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if p.Algo != "gfm" {
				return nil, 0, fmt.Errorf("rung: %w", anytime.ErrOversizedNode)
			}
			select {
			case gfmCalled <- struct{}{}:
			default:
			}
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateFailed {
		t.Fatalf("state %q, want failed", v.State)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (permanent errors must not retry)", v.Attempts)
	}
	if !strings.Contains(v.Error, anytime.ErrOversizedNode.Error()) {
		t.Fatalf("error %q does not surface the permanent cause", v.Error)
	}
	select {
	case <-gfmCalled:
		t.Fatal("ladder degraded past a permanent error")
	default:
	}

	// The failed job has no result to serve.
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of failed job: code %d, want 404", resp.StatusCode)
	}
}

func TestPanickingSolversAreContained(t *testing.T) {
	retryBefore := cRetries.Value()
	_, ts := newTestServer(t, Config{
		Workers:       1,
		MaxAttempts:   2,
		BaseBackoff:   time.Millisecond,
		DefaultBudget: 20 * time.Second,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if salvagePipeline(p) {
				return htp.PipelineCtx(ctx, h, spec, p)
			}
			panic("injected " + cmp.Or(p.Algo, "flow") + " panic")
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state %q (error %q), want done via salvage", v.State, v.Error)
	}
	if v.Stage != "salvage" || !v.Salvaged {
		t.Fatalf("stage=%q salvaged=%v, want salvage rung", v.Stage, v.Salvaged)
	}
	if cRetries.Value() <= retryBefore {
		t.Fatal("panicking attempts should count as retries")
	}

	// The worker survived the panics: the next job completes too.
	id2 := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 8), Height: 2})
	if v2 := waitTerminal(t, ts, id2, 30*time.Second); v2.State != StateDone {
		t.Fatalf("post-panic job: state %q", v2.State)
	}
}

// TestSalvageRungCarvesFromPartialMetric fails every rung but salvage, once
// each, and gives a c7552 job a 30 ms budget. A flat c7552 metric takes
// about half a second, so the salvage rung's deadline lands mid-metric and
// its one FLOW iteration carves the served partition from the partial
// metric.
func TestSalvageRungCarvesFromPartialMetric(t *testing.T) {
	cs, err := circuits.ByName("c7552")
	if err != nil {
		t.Fatal(err)
	}
	var net strings.Builder
	if err := circuits.Generate(cs, 1).Write(&net); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:     1,
		MaxAttempts: 1,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			if !salvagePipeline(p) {
				return nil, 0, errors.New("synthetic rung failure")
			}
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: net.String(), Height: 4, BudgetMS: 30})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone || v.Stage != "salvage" || !v.Salvaged {
		t.Fatalf("state %q stage %q salvaged %v (error %q), want done by the salvage rung", v.State, v.Stage, v.Salvaged, v.Error)
	}
	if v.Stop != string(anytime.StopDeadline) || !v.Verified {
		t.Fatalf("stop %q verified %v, want a verified result stopped by the deadline", v.Stop, v.Verified)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	dump, err := hierarchy.ReadDump(resp.Body)
	if err != nil {
		t.Fatalf("decoding result dump: %v", err)
	}
	h, err := hypergraph.ReadFrom(strings.NewReader(net.String()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := dump.Partition(h)
	if err != nil {
		t.Fatalf("reconstructing partition: %v", err)
	}
	if err := p.Validate(); err != nil || p.Cost() != dump.Cost {
		t.Fatalf("served partition: validate %v, cost %g against served %g", err, p.Cost(), dump.Cost)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       1,
		DefaultBudget: 20 * time.Second,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			<-ctx.Done()
			return nil, 0, ctx.Err()
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	waitRunning(t, ts, id, 5*time.Second)

	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: code %d", resp.StatusCode)
	}
	v := waitTerminal(t, ts, id, 10*time.Second)
	if v.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", v.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:       1,
		MaxQueue:      4,
		DefaultBudget: 20 * time.Second,
		Solver:        blockingSolver(release),
	})
	net := ringNetlist(t, 8)
	id1 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})
	waitRunning(t, ts, id1, 5*time.Second)
	id2 := submitOK(t, ts, JobSpec{Netlist: net, Height: 2})

	resp, err := http.Post(ts.URL+"/jobs/"+id2+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("POST cancel: %v", err)
	}
	resp.Body.Close()
	if v := getStatus(t, ts, id2); v.State != StateCancelled {
		t.Fatalf("queued job after cancel: state %q, want cancelled immediately", v.State)
	}

	close(release)
	if v := waitTerminal(t, ts, id1, 30*time.Second); v.State != StateDone {
		t.Fatalf("job 1: state %q", v.State)
	}
	// The worker drains the cancelled job without a second terminal
	// transition.
	deadline := time.Now().Add(5 * time.Second)
	for terminalCount(s, id2) != 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := terminalCount(s, id2); n != 1 {
		t.Fatalf("cancelled-while-queued job saw %d terminal transitions", n)
	}
}

func TestEventStreamHasExactlyOneStop(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DefaultBudget: 20 * time.Second})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	waitTerminal(t, ts, id, 30*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	stops, events := 0, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events++
			if line == "event: "+string(obs.KindStop) {
				stops++
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if stops != 1 {
		t.Fatalf("stream carried %d stop events, want exactly 1 (of %d events)", stops, events)
	}
	if events < 2 {
		t.Fatalf("stream carried only %d events; expected solver telemetry too", events)
	}
}

func TestResultPersistedAtomically(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, ResultDir: dir, DefaultBudget: 20 * time.Second})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	v := waitTerminal(t, ts, id, 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("state %q", v.State)
	}
	f, err := os.Open(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatalf("opening persisted result: %v", err)
	}
	dump, err := hierarchy.ReadDump(f)
	f.Close()
	if err != nil {
		t.Fatalf("reading persisted result: %v", err)
	}
	if dump.Cost != v.Cost {
		t.Fatalf("persisted cost %g != status cost %g", dump.Cost, v.Cost)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file litter in result dir: %s", e.Name())
		}
	}
}

// TestResultDumpFailureFailsJob: a result dump that cannot be written fails
// the job, with an error naming the dump, instead of serving it as done —
// such a job would have no result after a restart. The status, GET /result
// and a restart over the same journal agree.
func TestResultDumpFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "results")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:       1,
		DefaultBudget: 20 * time.Second,
		JournalPath:   filepath.Join(dir, "jobs.jsonl"),
		ResultDir:     notADir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	id := submitOK(t, ts1, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	check := func(ts *httptest.Server, when string) {
		v := waitTerminal(t, ts, id, 30*time.Second)
		if v.State != StateFailed || v.Verified || !strings.Contains(v.Error, "result dump") {
			t.Fatalf("%s: state %q verified %v error %q, want failed on the result dump", when, v.State, v.Verified, v.Error)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("%s: GET result: %v", when, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: result code %d, want 404", when, resp.StatusCode)
		}
	}
	check(ts1, "before restart")
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, ts2 := newTestServer(t, cfg)
	check(ts2, "after restart")
}

// TestTerminalRecordPrecedesPublishedState pins finishJob's write-ahead
// order: dump, terminal journal record, then the state clients see. A job
// published as done before its record is journaled would, after a crash
// between the two, restart as non-terminal and solve again. The solver
// holds the job until the test has locked the journal; from then on the
// dump reaches the disk, but GET /jobs/{id} must not report the job
// terminal until the journal is unlocked.
func TestTerminalRecordPrecedesPublishedState(t *testing.T) {
	dir := t.TempDir()
	entered, proceed := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Config{
		Workers:       1,
		DefaultBudget: 20 * time.Second,
		JournalPath:   filepath.Join(dir, "jobs.jsonl"),
		ResultDir:     dir,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			once.Do(func() { close(entered) })
			<-proceed
			return htp.PipelineCtx(ctx, h, spec, p)
		},
	})
	id := submitOK(t, ts, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	select {
	case <-entered: // the running record is journaled; the solve waits
	case <-time.After(30 * time.Second):
		t.Fatal("the job never reached the solver")
	}
	s.journal.mu.Lock()
	unlock := sync.OnceFunc(s.journal.mu.Unlock)
	defer unlock()
	close(proceed)

	dumpPath := filepath.Join(dir, id+".json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(dumpPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the result dump never reached the disk")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		if v := getStatus(t, ts, id); v.State.Terminal() {
			t.Fatalf("job published %q before its terminal record was journaled", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	unlock()
	if v := waitTerminal(t, ts, id, 30*time.Second); v.State != StateDone || !v.Verified {
		t.Fatalf("after the journal unlocked: state %q verified %v (error %q)", v.State, v.Verified, v.Error)
	}
}

func TestShutdownRequeuesAndRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "jobs.jsonl")
	recBefore := cRecovered.Value()

	s1, err := New(Config{
		Workers:       1,
		MaxQueue:      4,
		DefaultBudget: 20 * time.Second,
		JournalPath:   journalPath,
		Solver: func(ctx context.Context, h *hypergraph.Hypergraph, spec hierarchy.Spec, p htp.Pipeline) (*htp.Result, float64, error) {
			<-ctx.Done()
			return nil, 0, ctx.Err()
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	net := ringNetlist(t, 16)
	id1 := submitOK(t, ts1, JobSpec{Netlist: net, Height: 2, Seed: 3})
	waitRunning(t, ts1, id1, 5*time.Second)
	id2 := submitOK(t, ts1, JobSpec{Netlist: net, Height: 2, Seed: 4})
	ts1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Restart over the same journal with real solvers: both jobs come back
	// queued (the running one was re-queued, not terminated) and complete.
	_, ts2 := newTestServer(t, Config{
		Workers:       2,
		DefaultBudget: 20 * time.Second,
		JournalPath:   journalPath,
	})
	if got := cRecovered.Value() - recBefore; got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	for _, id := range []string{id1, id2} {
		v := waitTerminal(t, ts2, id, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("recovered job %s: state %q (error %q)", id, v.State, v.Error)
		}
		if !v.Verified {
			t.Fatalf("recovered job %s served unverified", id)
		}
	}

	// New submissions on the restarted server do not reuse recovered IDs.
	id3 := submitOK(t, ts2, JobSpec{Netlist: net, Height: 2})
	if id3 == id1 || id3 == id2 {
		t.Fatalf("restarted server reused job ID %s", id3)
	}
}

func TestRestartResurrectsTerminalJobs(t *testing.T) {
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
	spec := JobSpec{Netlist: ringNetlist(t, 16), Height: 2, Seed: 3, Label: "keep-me"}
	id := submitOK(t, ts1, spec)
	before := waitTerminal(t, ts1, id, 30*time.Second)
	if before.State != StateDone || !before.Verified {
		t.Fatalf("setup job: state %q verified %v", before.State, before.Verified)
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The restarted daemon must keep answering for the finished job: same
	// status (read-only, not re-queued), the certified dump reloaded from
	// ResultDir, and an SSE stream that ends immediately.
	_, ts2 := newTestServer(t, cfg)
	after := getStatus(t, ts2, id)
	if after.State != StateDone || !after.Verified {
		t.Fatalf("after restart: state %q verified %v (error %q)", after.State, after.Verified, after.Error)
	}
	if after.Stage != before.Stage || after.Stop != before.Stop || after.Cost != before.Cost {
		t.Fatalf("after restart: stage/stop/cost %q/%q/%v, want %q/%q/%v",
			after.Stage, after.Stop, after.Cost, before.Stage, before.Stop, before.Cost)
	}
	if after.Label != "keep-me" {
		t.Fatalf("after restart: label %q", after.Label)
	}
	resp, err := http.Get(ts2.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result after restart: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result after restart: code %d", resp.StatusCode)
	}
	dump, err := hierarchy.ReadDump(resp.Body)
	if err != nil {
		t.Fatalf("decoding resurrected dump: %v", err)
	}
	if dump.Cost != before.Cost {
		t.Fatalf("resurrected dump cost %v, want %v", dump.Cost, before.Cost)
	}
	h, err := hypergraph.ReadFrom(strings.NewReader(spec.Netlist))
	if err != nil {
		t.Fatalf("re-parsing netlist: %v", err)
	}
	p, err := dump.Partition(h)
	if err != nil {
		t.Fatalf("reconstructing resurrected partition: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("resurrected partition invalid: %v", err)
	}
	sse, err := http.Get(ts2.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events after restart: %v", err)
	}
	defer sse.Body.Close()
	if _, err := io.ReadAll(sse.Body); err != nil {
		t.Fatalf("resurrected SSE stream: %v", err)
	}
}

// TestRestartWithMissingDump covers the degraded half of resurrection: a
// done job whose persisted dump was lost keeps its terminal status but is
// downgraded to unverified, and the result endpoint explains why.
func TestRestartWithMissingDump(t *testing.T) {
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
	id := submitOK(t, ts1, JobSpec{Netlist: ringNetlist(t, 16), Height: 2})
	waitTerminal(t, ts1, id, 30*time.Second)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, id+".json")); err != nil {
		t.Fatalf("removing dump: %v", err)
	}

	_, ts2 := newTestServer(t, cfg)
	v := getStatus(t, ts2, id)
	if v.State != StateDone || v.Verified {
		t.Fatalf("after losing dump: state %q verified %v", v.State, v.Verified)
	}
	if v.Error == "" {
		t.Fatal("after losing dump: status carries no explanation")
	}
	resp, err := http.Get(ts2.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of dumpless done job: code %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: code %d", resp.StatusCode)
	}
}

// traceRecorder is a Config.Trace sink capturing raw events; it needs its
// own lock because distinct jobs emit from distinct worker goroutines.
type traceRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *traceRecorder) Event(e obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *traceRecorder) snapshot() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]obs.Event(nil), r.events...)
}

// TestJobTraceCarriesSpanIdentity runs two jobs against a daemon with a
// trace sink attached and pins the trace contract htptrace relies on:
// every event is tagged with its job ID, each job's stream ends in exactly
// one stop stamped with the job root span (always 1, minted at admission),
// rung spans, certification and the result writes nest under the root, and
// IDs are minted parent-first so Parent < Span everywhere.
func TestJobTraceCarriesSpanIdentity(t *testing.T) {
	rec := &traceRecorder{}
	_, ts := newTestServer(t, Config{
		Workers:       2,
		MaxQueue:      8,
		DefaultBudget: 20 * time.Second,
		Trace:         rec,
	})
	net := ringNetlist(t, 24)
	ids := []string{
		submitOK(t, ts, JobSpec{Netlist: net, Height: 2, Seed: 7}),
		submitOK(t, ts, JobSpec{Netlist: net, Height: 2, Seed: 8}),
	}
	for _, id := range ids {
		waitTerminal(t, ts, id, 15*time.Second)
	}
	// The terminal status turns visible just before finishJob emits the
	// trace stop; wait for both stops to land.
	byJob := map[string][]obs.Event{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		byJob = map[string][]obs.Event{}
		for _, e := range rec.snapshot() {
			byJob[e.Job] = append(byJob[e.Job], e)
		}
		stops := 0
		for _, id := range ids {
			for _, e := range byJob[id] {
				if e.Kind == obs.KindStop {
					stops++
				}
			}
		}
		if stops == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace stops never arrived: %d/%d", stops, len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}

	if n := len(byJob[""]); n != 0 {
		t.Fatalf("%d trace events carry no job tag", n)
	}
	for _, id := range ids {
		evs := byJob[id]
		if len(evs) == 0 {
			t.Fatalf("job %s left no trace", id)
		}
		stops, rungSpans, certifySpans, persistSpans := 0, 0, 0, 0
		for i, e := range evs {
			if e.Kind == obs.KindStop {
				stops++
				if i != len(evs)-1 {
					t.Errorf("job %s: stop at event %d of %d, want last", id, i+1, len(evs))
				}
				if e.Span != 1 {
					t.Errorf("job %s: stop stamped span %d, want root span 1", id, e.Span)
				}
			}
			if e.Span != 0 && e.Parent >= e.Span {
				t.Errorf("job %s: event %d violates parent-first minting: span=%d parent=%d",
					id, i, e.Span, e.Parent)
			}
			if e.Kind == obs.KindSpan && strings.HasPrefix(e.Phase, "rung:") {
				rungSpans++
				if e.Parent != 1 {
					t.Errorf("job %s: rung span %q nests under %d, want job root 1", id, e.Phase, e.Parent)
				}
			}
			// Certification and the result writes are job-level spans too.
			if e.Kind == obs.KindSpan && (e.Phase == "certify" || e.Phase == "persist") {
				if e.Phase == "certify" {
					certifySpans++
				} else {
					persistSpans++
				}
				if e.Parent != 1 {
					t.Errorf("job %s: %s span nests under %d, want job root 1", id, e.Phase, e.Parent)
				}
			}
		}
		if stops != 1 {
			t.Errorf("job %s traced %d stops, want exactly 1", id, stops)
		}
		if rungSpans == 0 {
			t.Errorf("job %s traced no rung spans", id)
		}
		if certifySpans == 0 || persistSpans != 1 {
			t.Errorf("job %s traced %d certify and %d persist spans, want at least 1 and exactly 1", id, certifySpans, persistSpans)
		}
		// A rung's solver run nests under the rung span, and its stop,
		// which the rung suppresses, still closes that run under the rung's
		// name, so htptrace names every span.
		for _, r := range evs {
			rung, ok := strings.CutPrefix(r.Phase, "rung:")
			if r.Kind != obs.KindSpan || !ok {
				continue
			}
			named := false
			for _, e := range evs {
				named = named || (e.Kind == obs.KindSpan && e.Phase == rung && e.Parent == r.Span)
			}
			if !named {
				t.Errorf("job %s: rung %q's solver run closed under no %q span", id, r.Phase, rung)
			}
		}
	}
}
