// Command bench is the repository's benchmark: end-to-end and per-layer
// metrics for certified solves (flat FLOW and the flow-refined multilevel
// V-cycle) and for the htpd service under open- and closed-loop load.
//
// Every input is generated from the seed, every output is certified, and
// BENCHMARK.json at the repository root declares the workloads and metrics.
// Two modes:
//
//	bench -workload flat-c7552 -seed 3 -seconds 20 -trace 0
//	    one run of one workload; the last line of output is the result
//	    JSON (end-to-end metrics, or per-layer ones with -trace 1)
//	bench -seed 1 [-repeat 2] [-out results.json]
//	    every workload, both metric sets; with -repeat, the suite runs
//	    again and no end-to-end median may be worse than the first run's
//	    by more than its BENCHMARK.json bound
//
// bench/run.sh builds the runner with its caches inside the checkout and
// runs it from the repository root; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// runConfig is what one workload run needs.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	short   bool
	exe     string // this binary, re-run as the solver child
	htpd    string // the htpd binary under test
	work    string // temporary space for inputs, journals and dumps
}

const (
	kindSolver  = "solver"
	kindService = "service"
)

// setupReps is how many times a run sets up — parses its netlist, or
// starts its daemon — before measuring; setup_s is the median.
const setupReps = 9

// kindModules names the modules whose per-layer metrics each kind of
// workload measures. A solver workload has no daemon; a service workload
// runs the solver inside htpd, where the benchmark does not time it. A
// metric of the other kind's modules reads 0; metrics of modules in
// neither list (result, bench) come from every workload.
var kindModules = map[string][]string{
	kindSolver:  {"hypergraph", "multilevel", "htp", "inject", "flowrefine", "verify", "trace"},
	kindService: {"server", "client"},
}

// runResult is one workload run.
type runResult struct {
	Workload  string
	Kind      string
	Attempted int
	Failed    int
	Problems  []string
	Metrics   map[string]float64
	// LatencyQuartiles are the quartiles of the per-operation latencies
	// behind latency_p50_s: solver repetitions or service jobs.
	LatencyQuartiles [3]float64
	Spans            []spanRec
	Origin           time.Time // wall time of the traced child's span clock
}

// absent lists the declared per-layer metrics a workload of kind never
// produces.
func absent(kind string, defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, m := range defs {
		module, _, _ := strings.Cut(m.Name, ".")
		for k, mods := range kindModules {
			for _, mod := range mods {
				if k != kind && mod == module {
					out[m.Name] = true
				}
			}
		}
	}
	return out
}

func runWorkload(ctx context.Context, cfg *runConfig, name string) (*runResult, error) {
	var r *runResult
	var err error
	if w := solverWorkloadByName(name); w != nil {
		r, err = runSolver(ctx, cfg, w)
	} else if w := serviceWorkloadByName(name); w != nil {
		r, err = runService(ctx, cfg, w)
	} else {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cfg.trace {
		r.Metrics["bench.fail_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	}
	return r, nil
}

func (r *runResult) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && strings.TrimLeft(args[0], "-") == "child" {
		return childMain(args)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload and end with the result line (default: the whole suite)")
		seed     = fs.Int64("seed", 1, "workload seed: every input and schedule derives from it")
		secs     = fs.Int("seconds", 0, "measured seconds per run (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run")
		repeat   = fs.Int("repeat", 1, "suite mode: run the suite this many times; exit 1 if an end-to-end median is worse than the first run's by more than its bound")
		short    = fs.Bool("short", false, "shrink every workload to a few seconds (tests)")
		out      = fs.String("out", "", "suite mode: write the results JSON here and the span trace beside it")
		rootArg  = fs.String("root", ".", "repository root, or its bench/ directory")
		buildArg = fs.String("build", "", "build and temporary directory (default: .bench_build under the root)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	root, err := findRoot(*rootArg)
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	seconds := time.Duration(spec.RunSeconds) * time.Second
	if *secs > 0 {
		seconds = time.Duration(*secs) * time.Second
	}
	if *short {
		seconds = min(seconds, 2*time.Second)
	}
	build := *buildArg
	if build == "" {
		build = filepath.Join(root, ".bench_build")
	}
	build, err = filepath.Abs(build)
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Join(build, "work"), 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(filepath.Join(build, "work"), "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	htpd := filepath.Join(build, "bin", "htpd")
	if err := goBuild(ctx, root, htpd, "./cmd/htpd"); err != nil {
		return fail(err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	cfg := &runConfig{seed: *seed, seconds: seconds, trace: *trace == 1, short: *short,
		exe: exe, htpd: htpd, work: work}

	if *workload != "" {
		tracePath := filepath.Join(build, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		return singleRun(ctx, spec, cfg, *workload, tracePath, stdout)
	}
	return suiteRun(ctx, spec, cfg, *repeat, *out, stdout)
}

// goBuild builds a package of the repository under test into out.
func goBuild(ctx context.Context, root, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %w", pkg, err)
	}
	return nil
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// singleRun runs one workload once and prints its end-to-end (or, traced,
// per-layer) metrics by name, then the result line. Exit status 1 means the
// run completed but an output did not certify.
func singleRun(ctx context.Context, spec *benchSpec, cfg *runConfig, name, tracePath string, stdout io.Writer) int {
	r, err := runWorkload(ctx, cfg, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defs := spec.EndToEnd
	if cfg.trace {
		defs = spec.PerLayer
	}
	vals, order, err := spec.selectMetrics(defs, r.Metrics, absent(r.Kind, spec.PerLayer))
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
	}
	fmt.Fprintf(os.Stderr, "bench: %s latency quartiles %.6g %.6g %.6g s\n", name,
		r.LatencyQuartiles[0], r.LatencyQuartiles[1], r.LatencyQuartiles[2])
	printMetrics(stdout, name, order, vals)
	if cfg.trace && len(r.Spans) > 0 {
		if err := writeTrace(tracePath, []*runResult{r}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		} else {
			fmt.Fprintf(os.Stderr, "bench: span trace in %s\n", tracePath)
		}
	}
	line, err := json.Marshal(resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !r.correct() {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, workload string, order []string, vals map[string]metricValue) {
	for _, name := range order {
		v := vals[name]
		fmt.Fprintf(w, "%-16s %-32s %14.6g %s\n", workload, name, v.Value, v.Unit)
	}
}

// suiteRecord is one workload run in the suite's results JSON.
type suiteRecord struct {
	Run       int                    `json:"run"`
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Quartiles [3]float64             `json:"latency_quartiles_s"`
}

// agreement compares one end-to-end metric of one workload across runs:
// Within is false when a later run is worse than the first by more than
// the metric's bound.
type agreement struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within_bound"`
}

// suiteRun runs every workload, traced, repeat times; with repeat >= 2 it
// checks every end-to-end median of each later run against the first.
func suiteRun(ctx context.Context, spec *benchSpec, cfg *runConfig, repeat int, out string, stdout io.Writer) int {
	cfg.trace = true
	status := 0
	var records []suiteRecord
	var traced []*runResult
	byKey := map[string][]float64{}
	for k := 1; k <= repeat; k++ {
		for _, name := range spec.workloadNames() {
			t0 := time.Now()
			r, err := runWorkload(ctx, cfg, name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d: %d attempted, %d failed, %.1fs\n",
				name, k, r.Attempted, r.Failed, time.Since(t0).Seconds())
			rec := suiteRecord{Run: k, Workload: name, Attempted: r.Attempted, Failed: r.Failed,
				Metrics: map[string]metricValue{}, Quartiles: r.LatencyQuartiles}
			for _, defs := range [][]metricDef{spec.EndToEnd, spec.PerLayer} {
				vals, order, err := spec.selectMetrics(defs, r.Metrics, absent(r.Kind, spec.PerLayer))
				if err != nil {
					r.Problems = append(r.Problems, err.Error())
				}
				printMetrics(stdout, name, order, vals)
				for n, v := range vals {
					rec.Metrics[n] = v
				}
			}
			for _, m := range spec.EndToEnd {
				key := name + "\x00" + m.Name
				byKey[key] = append(byKey[key], r.Metrics[m.Name])
			}
			for _, p := range r.Problems {
				fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, p)
			}
			rec.Correct, rec.Problems = r.correct(), r.Problems
			if !rec.Correct {
				status = 1
			}
			records = append(records, rec)
			if len(r.Spans) > 0 {
				r.Workload = fmt.Sprintf("%s/run%d", name, k)
				traced = append(traced, r)
			}
		}
	}

	var agreements []agreement
	if repeat >= 2 {
		fmt.Fprintf(stdout, "\n%-16s %-18s %12s %12s %8s %6s %s\n", "workload", "metric", "run 1", "run 2", "change", "bound", "within")
		for _, name := range spec.workloadNames() {
			for _, m := range spec.EndToEnd {
				vs := byKey[name+"\x00"+m.Name]
				a := agreement{Workload: name, Metric: m.Name, Unit: m.Unit, Values: vs, Bound: m.Bound, Within: true}
				for _, v := range vs[1:] {
					a.Within = a.Within && !regressed(m, vs[0], v)
				}
				if !a.Within {
					status = 1
				}
				agreements = append(agreements, a)
				fmt.Fprintf(stdout, "%-16s %-18s %12.6g %12.6g %+7.1f%% %5.0f%% %v\n",
					name, m.Name, vs[0], vs[1], 100*ratio(vs[1]-vs[0], vs[0]), 100*m.Bound, a.Within)
			}
		}
	}
	if out != "" {
		doc := struct {
			Seed       int64         `json:"seed"`
			Seconds    float64       `json:"seconds"`
			Short      bool          `json:"short,omitempty"`
			Runs       []suiteRecord `json:"runs"`
			Agreements []agreement   `json:"agreements,omitempty"`
		}{cfg.seed, cfg.seconds.Seconds(), cfg.short, records, agreements}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err == nil && len(traced) > 0 {
			err = writeTrace(strings.TrimSuffix(out, ".json")+".trace.jsonl", traced)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// writeTrace writes the traced runs' spans in the program's own trace
// event format (obs.Event JSONL), one job per run, so htptrace renders the
// per-phase split of a benchmark run exactly as it renders a program trace.
func writeTrace(path string, runs []*runResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, r := range runs {
		for _, s := range r.Spans {
			obs.Emit(sink, obs.Event{
				Kind: obs.KindSpan, Phase: s.Phase, Job: r.Workload,
				Time:      r.Origin.Add(time.Duration(s.Start + s.Dur)),
				Span:      obs.SpanID(s.ID),
				Parent:    obs.SpanID(s.Parent),
				Cost:      s.Cost,
				ElapsedMS: float64(s.Dur) / 1e6,
			})
		}
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
