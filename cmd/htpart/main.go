// Command htpart partitions a netlist into a tree hierarchy with the
// algorithms of Kuo & Cheng (DAC'97): FLOW (the paper's network-flow
// approach), and the GFM/RFM baselines, optionally followed by FM
// refinement ("+").
//
// Usage:
//
//	htpart -in circuit.net -algo flow -height 4 -wbase 2 -slack 1.1
//	htpart -in circuit.net -algo rfm+ -seed 7 -print-tree
//	htpart -in circuit.net -algo flow -timeout 50ms   # anytime: best-so-far
//
// With -timeout (or on Ctrl-C) the solvers stop at the deadline and print
// the best valid partition found so far; the stop line reports why the run
// ended (converged, max-rounds, deadline, cancelled) and how the wall time
// split across phases. The exit status is 0 whenever a valid partition is
// printed.
//
// Telemetry:
//
//	htpart -in c.net -trace run.jsonl        # JSONL trace events
//	htpart -in c.net -log-level debug        # slog events on stderr
//	htpart -in c.net -progress               # live progress line
//	htpart -in c.net -report run.json -lb 40 # per-run report + LP bound
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/verify"
)

func main() {
	var (
		in         = flag.String("in", "", "input netlist (extended hMETIS format)")
		algo       = flag.String("algo", "flow", "algorithm: flow, rfm, gfm, flow+, rfm+, gfm+")
		height     = flag.Int("height", 4, "hierarchy height L (full binary tree, as in the paper)")
		wbase      = flag.Float64("wbase", 2, "level weight base: w_l = wbase^l")
		slack      = flag.Float64("slack", 1.1, "capacity slack over balanced binary splits")
		seed       = flag.Int64("seed", 1, "random seed")
		iters      = flag.Int("n", 4, "FLOW iterations (Algorithm 1's N)")
		perMetric  = flag.Int("per-metric", 1, "partitions constructed per spreading metric")
		workers    = flag.Int("workers", 1, "concurrent tree growths in Algorithm 2; 1 = exact sequential, 0 = NumCPU")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget; 0 = unlimited (best-so-far on expiry)")
		printTree  = flag.Bool("print-tree", false, "print the partition tree")
		levels     = flag.Bool("levels", false, "print per-level cost breakdown")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		trace      = flag.String("trace", "", "write JSONL trace events to this file")
		logLevel   = flag.String("log-level", "", "log trace events to stderr via slog: debug, info, warn, error")
		progress   = flag.Bool("progress", false, "render a live progress line on stderr")
		report     = flag.String("report", "", "write a per-run JSON report to this file")
		lbRounds   = flag.Int("lb", 0, "cutting-plane rounds for the LP lower bound in the report/output (0 = skip; small instances only)")
		save       = flag.String("save", "", "write the partition dump (JSON) to this file for later htpcheck -partition verification")
		metricsOut = flag.String("metrics-dump", "", "write the final process metrics snapshot (Prometheus text exposition, incl. htp.* counters) to this file")
		ml         = flag.Bool("multilevel", false, "solve via the multilevel V-cycle: coarsen, run -algo on the coarsest level, uncoarsen with per-level refinement")
		coarsenTgt = flag.Int("coarsen-target", 300, "with -multilevel: node count at which coarsening stops")
		flowRef    = flag.Bool("flow-refine", false, "run flow-based pairwise refinement as the last step (with -multilevel: on the finest level, after uncoarsening); every accepted move batch is re-certified by internal/verify")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("need -in netlist"))
	}
	timeoutSet, itersSet, perMetricSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "timeout":
			timeoutSet = true
		case "n":
			itersSet = true
		case "per-metric":
			perMetricSet = true
		}
	})
	if err := validateRunFlags(*workers, *timeout, timeoutSet); err != nil {
		fmt.Fprintln(os.Stderr, "htpart:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	defer profiles(*cpuprofile, *memprofile)()

	// Telemetry sinks: a collector always runs (it powers the phase-timing
	// summary and -report), the trace file and slog sinks are opt-in. The
	// whole stack hangs off the solver options; the collector's per-event
	// cost is round-level and irrelevant to a CLI run.
	collector := obs.NewCollector()
	sinks := []obs.Observer{collector}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		js := obs.NewJSONLSink(f)
		defer func() {
			if err := js.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "htpart: trace:", err)
			}
			f.Close()
		}()
		sinks = append(sinks, js)
	}
	if *logLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fatal(fmt.Errorf("bad -log-level %q: %w", *logLevel, err))
		}
		sinks = append(sinks, obs.NewSlogSink(slog.New(
			slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))))
	}
	if *progress {
		sinks = append(sinks, obs.ProgressObserver(progressLine))
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	h, err := hypergraph.ReadFile(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "netlist: %s\n", hypergraph.ComputeStats(h))

	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), *height,
		hierarchy.GeometricWeights(*height, *wbase), *slack)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "spec: C=%v K=%v w=%v\n", spec.Capacity, spec.Branch, spec.Weight)

	plus := strings.HasSuffix(*algo, "+")
	algoLabel := *algo
	if *ml {
		algoLabel = "multilevel(" + *algo + ")"
	}
	var flowRefine *flowrefine.Options
	if *flowRef {
		algoLabel += "+flowrefine"
		flowRefine = &flowrefine.Options{Workers: *workers, Certify: verify.Certifier()}
	}

	// The constructor, FM for "+", then flow refinement (seeded from the
	// run seed) as the last step; with -multilevel, inside the V-cycle.
	p := htp.Pipeline{
		Algo:       *algo,
		Seed:       *seed,
		FlowRefine: flowRefine,
		Observer:   obs.Multi(sinks...),
	}
	if *ml {
		// The V-cycle owns iteration/metric defaults tuned for the coarse
		// level; the flat-FLOW flag defaults (-n 4) would override them, so
		// only explicitly-set values are forwarded.
		p.Multilevel = &htp.Multilevel{CoarsenTarget: *coarsenTgt, Workers: *workers}
		if itersSet {
			p.Flow.Iterations = *iters
		}
		if perMetricSet {
			p.Flow.PartitionsPerMetric = *perMetric
		}
	} else {
		p.Flow = htp.FlowOptions{Iterations: *iters, PartitionsPerMetric: *perMetric, Inject: inject.Options{Workers: *workers}}
	}
	start := time.Now()
	res, initial, err := htp.PipelineCtx(ctx, h, spec, p)
	if *progress {
		fmt.Fprint(os.Stderr, "\n") // terminate the live line before results
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	// Independent re-verification (internal/verify): recompute cost and
	// feasibility with code the solvers share nothing with, cross-check
	// Lemma 1 and the anytime contract. A discrepancy here is a solver bug,
	// not a usage error — never print an unverified partition as a result.
	if vrep := verify.Result(res); !vrep.OK() {
		fatal(fmt.Errorf("result failed independent verification: %w", vrep.Err()))
	}
	fmt.Printf("algorithm: %s\n", algoLabel)
	fmt.Printf("cost:      %.0f\n", res.Cost)
	fmt.Printf("verified:  cost, feasibility, and Lemma-1 re-checked independently\n")
	if plus {
		if initial > 0 {
			fmt.Printf("initial:   %.0f (improvement %.1f%%)\n",
				initial, 100*(initial-res.Cost)/initial)
		} else {
			fmt.Printf("initial:   %.0f (improvement n/a)\n", initial)
		}
	}
	fmt.Printf("stop:      %s\n", res.Stop)
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "htpart: iteration failure (best-so-far unaffected): %v\n", f)
	}
	fmt.Printf("cpu:       %.2fs\n", elapsed.Seconds())
	rep := collector.Report()
	if rep.Salvages > 0 {
		fmt.Printf("salvaged:  %d (partition built from the interrupted metric)\n", rep.Salvages)
	}
	phases := make([]string, 0, len(rep.PhaseMS))
	for ph := range rep.PhaseMS {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Printf("phase %-9s %.1fms\n", ph+":", rep.PhaseMS[ph])
	}

	// Optional certificate: the spreading-metric LP lower bound (Lemma 2)
	// and the gap it proves. Runs under the same context, so a -timeout
	// that already fired reports the bound proven so far (possibly 0).
	var lbValue, gap float64
	if *lbRounds > 0 {
		lb, lbErr := metric.ExactLowerBoundCtx(ctx, h, spec, *lbRounds)
		if lbErr != nil {
			fmt.Fprintln(os.Stderr, "htpart: lower bound:", lbErr)
		} else {
			lbValue = lb.Value
			if lb.Value > 0 {
				gap = (res.Cost - lb.Value) / lb.Value
				fmt.Printf("lower:     %.2f (%s; gap %.1f%%)\n", lb.Value, lb.Stop, 100*gap)
			} else {
				fmt.Printf("lower:     %.2f (%s)\n", lb.Value, lb.Stop)
			}
		}
	}

	if *report != "" {
		rr := runReport{
			Algorithm:   algoLabel,
			Input:       *in,
			Seed:        *seed,
			Cost:        res.Cost,
			WallSeconds: elapsed.Seconds(),
			LowerBound:  lbValue,
			Gap:         gap,
			RunReport:   rep,
		}
		if plus {
			rr.Initial = initial
		}
		data, jerr := json.MarshalIndent(rr, "", "  ")
		if jerr == nil {
			jerr = os.WriteFile(*report, append(data, '\n'), 0o644)
		}
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "htpart: report:", jerr)
		}
	}

	if *save != "" {
		d := hierarchy.DumpPartition(res.Partition, res.Cost)
		d.Netlist = *in
		d.Algorithm = algoLabel
		d.Seed = *seed
		d.Stop = string(res.Stop)
		// Atomic temp+rename write: an interrupt mid-save can never leave a
		// truncated dump where a complete one is expected.
		if serr := d.WriteFile(*save); serr != nil {
			fmt.Fprintln(os.Stderr, "htpart: save:", serr)
		}
	}

	if *levels {
		for l, c := range res.Partition.LevelCosts() {
			fmt.Printf("level %d:   %.0f\n", l, c)
		}
	}
	if *printTree {
		fmt.Print(res.Partition.String())
	}
	if *metricsOut != "" {
		if err := writeMetricsDump(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "htpart: metrics-dump:", err)
		}
	}
}

// writeMetricsDump snapshots the process metrics in the same exposition
// format htpd serves at GET /metrics, so a batch run leaves a scrapeable
// record next to its -report.
func writeMetricsDump(path string) error {
	var b bytes.Buffer
	if err := metrics.WriteProcessMetrics(&b); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runReport is the -report JSON document: run identity and headline numbers
// up front, the collector's event-derived summary (stop reason, phase
// timings, counters) flattened alongside.
type runReport struct {
	Algorithm   string  `json:"algorithm"`
	Input       string  `json:"input"`
	Seed        int64   `json:"seed"`
	Cost        float64 `json:"cost"`
	Initial     float64 `json:"initial,omitempty"`
	LowerBound  float64 `json:"lower_bound,omitempty"`
	Gap         float64 `json:"gap,omitempty"`
	WallSeconds float64 `json:"wall_s"`
	obs.RunReport
}

// validateRunFlags rejects flag values that would otherwise fail obscurely
// deep in the solver. A negative -workers has no meaning (0 already means
// NumCPU). -timeout defaults to 0 = unlimited, but a zero or negative
// duration the user typed out ("-timeout 0s") is almost always a mistake, so
// an explicitly-set non-positive value is an error rather than silently
// meaning "no deadline".
func validateRunFlags(workers int, timeout time.Duration, timeoutSet bool) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", workers)
	}
	if timeoutSet && timeout <= 0 {
		return fmt.Errorf("-timeout must be positive when set, got %v", timeout)
	}
	return nil
}

// progressLine renders the live one-line status on stderr, rewriting in
// place; main prints the terminating newline once the solver returns.
func progressLine(p obs.Progress) {
	var b strings.Builder
	b.WriteString("\r\x1b[K")
	b.WriteString(p.Phase)
	if p.Iter > 0 {
		fmt.Fprintf(&b, " iter %d", p.Iter)
	}
	if p.Round > 0 {
		fmt.Fprintf(&b, " round %d", p.Round)
	}
	if p.Phase == "metric" {
		fmt.Fprintf(&b, " active %d inj %d", p.Active, p.Injections)
	}
	if p.HaveBest {
		fmt.Fprintf(&b, " best %.0f", p.BestCost)
	}
	if p.Stop != "" {
		fmt.Fprintf(&b, " (%s)", p.Stop)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// profiles starts a CPU profile and arranges a heap profile, returning the
// function that stops and writes them; fatal also runs it so profiles
// survive error exits (os.Exit skips defers).
func profiles(cpu, mem string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	stopProfiles = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			cpuFile = nil
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "htpart:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "htpart:", err)
			}
		}
		stopProfiles = func() {}
	}
	return func() { stopProfiles() }
}

var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "htpart:", err)
	os.Exit(1)
}
