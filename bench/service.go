package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/hypergraph"
	"repro/internal/server"
)

// daemon is one htpd process started by the benchmark.
type daemon struct {
	cmd *exec.Cmd
	api *api
}

// startDaemon launches htpd on a free loopback port with its journal and
// result directory under dir, and returns once /healthz answers 200,
// together with the time from spawn to that answer.
func startDaemon(ctx context.Context, cfg *runConfig, dir string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(cfg.htpd,
		"-addr", "127.0.0.1:"+strconv.Itoa(port),
		"-workers", "2", "-queue", "64", "-drain", "20s", "-log-level", "warn",
		"-journal", filepath.Join(dir, "journal.jsonl"),
		"-results", filepath.Join(dir, "results"))
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	detach(cmd)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting htpd: %w", err)
	}
	d := &daemon{cmd: cmd, api: newAPI(fmt.Sprintf("http://127.0.0.1:%d", port))}
	hctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for hctx.Err() == nil {
		if d.api.healthy(hctx) {
			return d, time.Since(t0), nil
		}
		sleepUntil(hctx, time.Now().Add(time.Millisecond))
	}
	d.kill()
	return nil, 0, fmt.Errorf("htpd not healthy: %w", context.Cause(hctx))
}

// stop shuts the daemon down gracefully (SIGTERM: admission closes, the
// pool drains, the journal closes) and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("htpd exit: %w", err)
	}
	return nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine: Wait reaps either way
	_ = d.cmd.Wait()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// api is the benchmark's htpd client. Its transport holds at most two
// connections: the load comes from at most two goroutines.
type api struct {
	base   string
	client *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}}}
}

func (a *api) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (a *api) healthy(ctx context.Context) bool {
	code, _, err := a.do(ctx, http.MethodGet, "/healthz", nil)
	return err == nil && code == http.StatusOK
}

// submit posts a job; a non-202 answer is reported as its status code.
func (a *api) submit(ctx context.Context, body []byte) (string, int, error) {
	code, data, err := a.do(ctx, http.MethodPost, "/jobs", body)
	if err != nil || code != http.StatusAccepted {
		return "", code, err
	}
	var out struct{ ID string }
	if err := json.Unmarshal(data, &out); err != nil {
		return "", code, fmt.Errorf("submit answer: %w", err)
	}
	return out.ID, code, nil
}

func (a *api) getJSON(ctx context.Context, path string, v any) error {
	code, data, err := a.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

func (a *api) result(ctx context.Context, id string) ([]byte, error) {
	code, data, err := a.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result of %s: %d %s", id, code, bytes.TrimSpace(data))
	}
	return data, err
}

// awaitEvents follows the job's SSE stream until the daemon ends it, which
// it does right after the job reaches a terminal state.
func (a *api) awaitEvents(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: %d", id, resp.StatusCode)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// counter reads one sample from the daemon's /metrics exposition.
func (a *api) counter(ctx context.Context, name string) (float64, error) {
	code, data, err := a.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %d", code)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// totalAlloc is the daemon's cumulative heap allocation (expvar memstats).
func (a *api) totalAlloc(ctx context.Context) (float64, error) {
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := a.getJSON(ctx, "/debug/vars", &vars); err != nil {
		return 0, err
	}
	return float64(vars.Memstats.TotalAlloc), nil
}

// jobRec is one job as the client saw it. Open-loop jobs are due on a
// schedule; closed-loop jobs are due the moment their client sends them.
type jobRec struct {
	input     int // index of the netlist the job carries
	body      []byte
	due, sent time.Time
	observed  time.Time
	submitRTT time.Duration
	fetchRTT  time.Duration
	id        string
	code      int
	err       error
	dump      []byte
}

// probe is the daemon-side state sampled around the measured window.
type probe struct {
	cpu, alloc, rounds float64
}

func (d *daemon) probe(ctx context.Context) (probe, error) {
	var p probe
	var err error
	if p.cpu, err = cpuSeconds(d.pid()); err != nil {
		return p, err
	}
	if p.alloc, err = d.api.totalAlloc(ctx); err != nil {
		return p, err
	}
	p.rounds, err = d.api.counter(ctx, "htp_metric_rounds")
	return p, err
}

// serviceWorkload drives the real htpd binary. load generates the jobs and
// runs them against a daemon; the shared harness around it measures
// set-up, the daemon's resources, durability and restart, and certifies
// every result after the measured window.
type serviceWorkload struct {
	name string
	// inputs returns the netlists jobs carry.
	inputs func(short bool) ([]*hypergraph.Hypergraph, error)
	// load runs the measured window and returns every job attempted.
	load func(ctx context.Context, cfg *runConfig, a *api, netlists [][]byte) ([]*jobRec, error)
	// openLoop marks a schedule-driven load, whose generator lag is reported.
	openLoop bool
}

var serviceWorkloads = []*serviceWorkload{
	{name: "svc-iscas", inputs: iscasInputs, load: openLoad, openLoop: true},
	{name: "svc-tiny", inputs: tinyInputs, load: closedLoad},
}

func serviceWorkloadByName(name string) *serviceWorkload {
	for _, w := range serviceWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// iscasMix is the open loop's job mix: ISCAS-85-class circuits with the
// share of each in tenths. The median job is a c2670.
var iscasMix = []struct {
	circuit string
	tenths  int
}{{"c1355", 4}, {"c2670", 4}, {"c3540", 2}}

// The service workloads submit a fixed library of netlists — the circuits
// as gencircuit generates them by default — and draw everything else from
// the workload seed: which job carries which netlist, each job's solver
// seed, and the arrival times. A job's cost depends on its netlist far
// more than on its seed, so a per-seed netlist would make the whole run's
// latency a function of one draw.
const librarySeed = 1

func iscasInputs(short bool) ([]*hypergraph.Hypergraph, error) {
	var out []*hypergraph.Hypergraph
	for i, m := range iscasMix {
		if short && i > 0 {
			break
		}
		spec, err := circuits.ByName(m.circuit)
		if err != nil {
			return nil, err
		}
		out = append(out, circuits.Generate(spec, librarySeed))
	}
	return out, nil
}

// tinyInputs is one 64-node clustered netlist: four clusters of sixteen.
func tinyInputs(bool) ([]*hypergraph.Hypergraph, error) {
	return []*hypergraph.Hypergraph{circuits.Clustered(4, 16, 0.3, librarySeed)}, nil
}

// Open-loop rate: capacity on two workers is about 7 jobs/s for this mix,
// so 4 jobs/s is ~55% load — enough queueing to build a tail, with room
// for this box's CPU speed to drift by half without overloading the
// daemon. Jobs never number fewer than 100, the fewest that support a p90.
// The closed loop runs a fixed number of jobs — about what two clients
// complete in the window — so the daemon's per-job growth (memory,
// journal, restart) is measured at the same job count every run.
const (
	openRate      = 4.0
	openRateShort = 25.0
	openMinJobs   = 100
	pollEvery     = 5 * time.Millisecond
	closedRate    = 350.0
)

func jobBody(netlist []byte, seed int64, label string) ([]byte, error) {
	return json.Marshal(server.JobSpec{Netlist: string(netlist), Seed: seed, Label: label})
}

// openLoad submits jobs on a seeded paced schedule regardless of how the
// daemon keeps up: one goroutine sends each job when due, a second polls
// the outstanding jobs' status and fetches each result once it is done.
func openLoad(ctx context.Context, cfg *runConfig, a *api, netlists [][]byte) ([]*jobRec, error) {
	rate := openRate
	if cfg.short {
		rate = openRateShort
	}
	n := max(openMinJobs, int(rate*cfg.seconds.Seconds()+0.5))
	rng := rand.New(rand.NewSource(cfg.seed))
	// Exact shares of the mix; the first circuit takes the rounding.
	kinds := make([]int, n)
	k := 0
	for i := 1; i < len(netlists); i++ {
		for c := 0; c < n*iscasMix[i].tenths/10; c++ {
			kinds[k] = i
			k++
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	jobs := make([]*jobRec, n)
	for i := range jobs {
		body, err := jobBody(netlists[kinds[i]], rng.Int63n(1<<30)+1, fmt.Sprintf("%s-%03d", iscasMix[kinds[i]].circuit, i))
		if err != nil {
			return nil, err
		}
		jobs[i] = &jobRec{input: kinds[i], body: body}
	}
	start := time.Now().Add(20 * time.Millisecond)
	for i, off := range arrivals(cfg.seed^0x0a11, rate, n) {
		jobs[i].due = start.Add(off)
	}

	submitted := make(chan *jobRec, n) // one send per job
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panics []error
	recovered := func(who string) {
		if p := recover(); p != nil {
			mu.Lock()
			panics = append(panics, fmt.Errorf("%s panicked: %v", who, p))
			mu.Unlock()
		}
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(submitted)
		defer recovered("submitter")
		for _, j := range jobs {
			if !sleepUntil(ctx, j.due) {
				return
			}
			j.sent = time.Now()
			j.id, j.code, j.err = a.submit(ctx, j.body)
			j.submitRTT = time.Since(j.sent)
			submitted <- j
		}
	}()
	go func() {
		defer wg.Done()
		defer recovered("observer")
		var outstanding []*jobRec
		open := true
		for open || len(outstanding) > 0 {
			if len(outstanding) == 0 {
				select {
				case j, ok := <-submitted:
					if !ok {
						open = false
						continue
					}
					outstanding = append(outstanding, j)
				case <-ctx.Done():
					return
				}
			}
		drain:
			for open {
				select {
				case j, ok := <-submitted:
					if !ok {
						open = false
						break drain
					}
					outstanding = append(outstanding, j)
				default:
					break drain
				}
			}
			kept := outstanding[:0]
			for _, j := range outstanding {
				if j.err != nil || j.code != http.StatusAccepted {
					continue
				}
				var st server.StatusView
				if j.err = a.getJSON(ctx, "/jobs/"+j.id, &st); j.err != nil {
					continue
				}
				if !st.State.Terminal() {
					kept = append(kept, j)
					continue
				}
				j.observed = time.Now()
				if st.State == server.StateDone {
					j.dump, j.err = a.result(ctx, j.id)
					j.fetchRTT = time.Since(j.observed)
				}
			}
			outstanding = kept
			if len(outstanding) > 0 && !sleepUntil(ctx, time.Now().Add(pollEvery)) {
				return
			}
		}
	}()
	wg.Wait()
	if len(panics) > 0 {
		return nil, panics[0]
	}
	return jobs, nil
}

// closedLoad runs two clients, each submitting a job, following its event
// stream to the end, fetching the result, and only then sending the next,
// until together they have run the window's share of jobs.
func closedLoad(ctx context.Context, cfg *runConfig, a *api, netlists [][]byte) ([]*jobRec, error) {
	const clients = 2
	n := int(closedRate * cfg.seconds.Seconds())
	jobs := make([]*jobRec, n)
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range jobs {
		body, err := jobBody(netlists[0], rng.Int63n(1<<30)+1, fmt.Sprintf("tiny-%05d", i))
		if err != nil {
			return nil, err
		}
		jobs[i] = &jobRec{body: body}
	}
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("client %d panicked: %v", c, p)
				}
			}()
			for i := next.Add(1) - 1; i < int64(n) && ctx.Err() == nil; i = next.Add(1) - 1 {
				j := jobs[i]
				j.sent = time.Now()
				j.due = j.sent
				j.id, j.code, j.err = a.submit(ctx, j.body)
				j.submitRTT = time.Since(j.sent)
				if j.err == nil && j.code == http.StatusAccepted {
					j.err = a.awaitEvents(ctx, j.id)
					j.observed = time.Now()
				}
				if j.err == nil && j.code == http.StatusAccepted {
					j.dump, j.err = a.result(ctx, j.id)
					j.fetchRTT = time.Since(j.observed)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// sleepUntil waits for t or ctx, reporting false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// restartSample is how many finished jobs are re-fetched after restart.
const restartSample = 100

// runService measures one service workload end to end.
func runService(ctx context.Context, cfg *runConfig, w *serviceWorkload) (*runResult, error) {
	r := &runResult{Workload: w.name, Kind: kindService, Metrics: map[string]float64{}}
	hs, err := w.inputs(cfg.short)
	if err != nil {
		return nil, err
	}
	netlists := make([][]byte, len(hs))
	for i, h := range hs {
		var b bytes.Buffer
		if err := h.Write(&b); err != nil {
			return nil, err
		}
		netlists[i] = b.Bytes()
	}

	// Set-up: start the daemon several times on fresh state; the last one
	// serves the load.
	var spawns []float64
	var d *daemon
	var dir string
	for i := 0; i < setupReps; i++ {
		if dir, err = os.MkdirTemp(cfg.work, w.name+"-"); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = startDaemon(ctx, cfg, dir); err != nil {
			return nil, err
		}
		spawns = append(spawns, took.Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer os.RemoveAll(dir)
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	// Generous cap on the whole load, so a wedged daemon fails the run well
	// inside its time limit.
	lctx, cancel := context.WithTimeout(ctx, cfg.seconds+60*time.Second)
	defer cancel()
	before, err := d.probe(lctx)
	if err != nil {
		return nil, err
	}
	jobs, err := w.load(lctx, cfg, d.api, netlists)
	if err != nil {
		return nil, err
	}
	after, err := d.probe(lctx)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	var list struct{ Jobs []server.StatusView }
	if err := d.api.getJSON(lctx, "/jobs", &list); err != nil {
		return nil, err
	}
	status := map[string]server.StatusView{}
	for _, st := range list.Jobs {
		status[st.ID] = st
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	journalB, err := fileBytes(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	dumpB, err := dirBytes(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}

	// Certify every result against the netlist that was submitted — after
	// the window, so the check takes no CPU from the daemon.
	fail := func(j *jobRec, format string, args ...any) {
		r.Failed++
		if len(r.Problems) < 20 {
			r.Problems = append(r.Problems, fmt.Sprintf("job %q: ", j.id)+fmt.Sprintf(format, args...))
		}
	}
	var done []*jobRec
	var latS, submitMS, queueMS, serviceMS, publishMS, fetchMS, dumpKB []float64
	var firstDue, lastSeen time.Time
	var lagMax time.Duration
	var attempts, degradations, retries, rejected int
	var costSum float64
	for _, j := range jobs {
		r.Attempted++
		submitMS = append(submitMS, ms(j.submitRTT))
		if !j.sent.IsZero() {
			lagMax = max(lagMax, lateness(j.due, j.sent))
		}
		if j.code == http.StatusTooManyRequests {
			rejected++
		}
		st, ok := status[j.id]
		switch {
		case j.err != nil:
			fail(j, "%v", j.err)
			continue
		case j.code != http.StatusAccepted:
			fail(j, "submit answered %d", j.code)
			continue
		case !ok || st.State != server.StateDone || !st.Verified:
			fail(j, "ended %s (verified %v): %s", st.State, st.Verified, st.Error)
			continue
		case st.StartedAt == nil || st.FinishedAt == nil:
			fail(j, "status lacks timestamps")
			continue
		}
		dmp, _, err := certifyDumpBytes(hs[j.input], j.dump)
		if err == nil && dmp.Cost != st.Cost {
			err = fmt.Errorf("dump cost %v, status cost %v", dmp.Cost, st.Cost)
		}
		if err != nil {
			fail(j, "result does not certify: %v", err)
			continue
		}
		done = append(done, j)
		latS = append(latS, latency(j.due, j.observed).Seconds())
		queueMS = append(queueMS, ms(st.StartedAt.Sub(st.SubmittedAt)))
		serviceMS = append(serviceMS, ms(st.FinishedAt.Sub(*st.StartedAt)))
		publishMS = append(publishMS, ms(j.observed.Sub(*st.FinishedAt)))
		fetchMS = append(fetchMS, ms(j.fetchRTT))
		dumpKB = append(dumpKB, float64(len(j.dump))/1024)
		attempts += st.Attempts
		degradations += st.Degradations
		retries += st.Retries
		costSum += st.Cost
		if firstDue.IsZero() || j.due.Before(firstDue) {
			firstDue = j.due
		}
		if j.observed.After(lastSeen) {
			lastSeen = j.observed
		}
	}
	if len(done) == 0 {
		return r, nil
	}

	// Restart on the same journal and results: recovery replays everything
	// written, and a seeded sample of finished jobs must serve the same
	// certified dumps.
	d, took, err := startDaemon(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	stopped = false
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5ee))
	for _, k := range rng.Perm(len(done))[:min(restartSample, len(done))] {
		j := done[k]
		again, err := d.api.result(lctx, j.id)
		if err == nil && !sameDump(j.dump, again) {
			err = fmt.Errorf("dump differs from the one served before restart")
		}
		if err != nil {
			fail(j, "after restart: %v", err)
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	n := float64(len(done))
	pct := func(xs []float64, p float64) float64 {
		v, err := percentile(xs, p)
		if err != nil {
			r.Problems = append(r.Problems, err.Error())
		}
		return v
	}
	m := r.Metrics
	m["setup_s"] = median(spawns)
	m["latency_p50_s"] = median(latS)
	r.LatencyQuartiles = quartiles(latS)
	m["cpu_s_per_op"] = (after.cpu - before.cpu) / n
	m["alloc_mb_per_op"] = (after.alloc - before.alloc) / mib / n
	m["peak_rss_mb"] = rss
	m["disk_kb_per_op"] = float64(journalB+dumpB) / 1024 / n
	if !cfg.trace {
		return r, nil
	}
	tail, err := tailPercentile(latS)
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	lag := 0.0
	if w.openLoop {
		lag = ms(lagMax)
	}
	layer := map[string]float64{
		"server.submit_p50_ms":         median(submitMS),
		"server.submit_p90_ms":         pct(submitMS, 90),
		"server.rejected_429":          float64(rejected),
		"server.queue_wait_p50_ms":     median(queueMS),
		"server.queue_wait_p90_ms":     pct(queueMS, 90),
		"server.service_p50_ms":        median(serviceMS),
		"server.service_p90_ms":        pct(serviceMS, 90),
		"server.attempts_per_job":      float64(attempts) / n,
		"server.degradations":          float64(degradations),
		"server.retries":               float64(retries),
		"server.metric_rounds_per_job": (after.rounds - before.rounds) / n,
		"server.publish_p50_ms":        median(publishMS),
		"server.fetch_p50_ms":          median(fetchMS),
		"server.result_kb":             mean(dumpKB),
		"server.journal_kb_per_job":    float64(journalB) / 1024 / n,
		"server.dump_kb_per_job":       float64(dumpB) / 1024 / n,
		"server.recover_s":             took.Seconds(),
		"client.latency_tail_s":        tail,
		"client.throughput_jobs_s":     n / lastSeen.Sub(firstDue).Seconds(),
		"client.gen_lag_max_ms":        lag,
		"result.cost":                  costSum / n,
	}
	for k, v := range layer {
		m[k] = v
	}
	return r, nil
}

// sameDump compares two served dumps as decoded documents.
func sameDump(a, b []byte) bool {
	da, err := hierarchy.ReadDump(bytes.NewReader(a))
	if err != nil {
		return false
	}
	db, err := hierarchy.ReadDump(bytes.NewReader(b))
	if err != nil {
		return false
	}
	return reflect.DeepEqual(da, db)
}
