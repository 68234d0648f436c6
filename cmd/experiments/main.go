// Command experiments regenerates every table and figure of Kuo & Cheng
// (DAC'97) on the synthetic ISCAS85-class benchmarks (see DESIGN.md for the
// substitutions). Output is plain text shaped like the paper's tables;
// EXPERIMENTS.md records a full run against the paper's qualitative claims.
//
// Usage:
//
//	experiments -all            # everything (minutes)
//	experiments -table 2        # one table
//	experiments -figure 2       # one figure
//	experiments -table 2 -quick # small circuits only
//	experiments -all -timeout 30s  # stop at the budget, partial output
//
// With -timeout (or on Ctrl-C) the run stops at the deadline: solvers
// return best-so-far results for the rows already in flight, and remaining
// sections are skipped with a note.
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
	"time"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/verify"
)

var (
	quick      = flag.Bool("quick", false, "use the two smallest circuits and fewer iterations")
	seed       = flag.Int64("seed", 1, "master random seed")
	flowN      = flag.Int("n", 4, "FLOW iterations (Algorithm 1's N)")
	workers    = flag.Int("workers", 1, "concurrent tree growths in Algorithm 2; 1 = exact sequential (the recorded runs), 0 = NumCPU")
	timeout    = flag.Duration("timeout", 0, "wall-clock budget; 0 = unlimited")
	trace      = flag.String("trace", "", "write JSONL trace events from every solver call to this file")
	logLevel   = flag.String("log-level", "", "log trace events to stderr via slog: debug, info, warn, error")
	report     = flag.String("report", "", "write an aggregate JSON report (all solver calls) to this file on exit")
	metricsOut = flag.String("metrics-dump", "", "write the final process metrics snapshot (Prometheus text exposition, incl. htp.* counters) to this file on exit")

	// runCtx governs every solver call; set in main, cancelled by -timeout
	// or SIGINT.
	runCtx = context.Background()

	// observer fans trace events from every solver call into the sinks
	// built in main from -trace/-log-level/-report; nil when all are off.
	observer obs.Observer
)

// certify re-verifies a solver result with the independent checker before
// its numbers enter any table: naive cost recomputation, feasibility,
// Lemma 1, and anytime-contract consistency. Every figure printed by this
// command has passed it — a discrepancy aborts the run rather than
// publishing an uncertified number into EXPERIMENTS.md.
func certify(label string, res *htp.Result) *htp.Result {
	if rep := verify.Result(res); !rep.OK() {
		fatal(fmt.Errorf("%s failed independent verification: %w", label, rep.Err()))
	}
	return res
}

// injectOpts returns the Algorithm 2 options every section uses, carrying
// the -workers choice. The observer only reaches standalone metric calls:
// FLOW overrides it (like Rng) with its own per-iteration observer.
func injectOpts() inject.Options {
	return inject.Options{Workers: *workers, Observer: observer}
}

// flowOpts returns FLOW options with the shared iteration count, seed, and
// injection settings.
func flowOpts(n int) htp.FlowOptions {
	return htp.FlowOptions{Iterations: n, Seed: *seed, Inject: injectOpts(), Observer: observer}
}

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, ablation")
	figure := flag.String("figure", "", "figure to regenerate: 1, 2, scaling")
	all := flag.Bool("all", false, "regenerate everything")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	defer profiles(*cpuprofile, *memprofile)()

	if *metricsOut != "" {
		// Snapshot at exit, after every solver call ticked the htp_*
		// counters — the same exposition document htpd serves on /metrics.
		defer func() {
			var b bytes.Buffer
			err := metrics.Default.WritePrometheus(&b)
			if err == nil {
				err = os.WriteFile(*metricsOut, b.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: metrics-dump:", err)
			}
		}()
	}

	var sinks []obs.Observer
	var collector *obs.Collector
	if *report != "" {
		collector = obs.NewCollector()
		sinks = append(sinks, collector)
		defer func() {
			rep := collector.Report()
			data, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(*report, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: report:", err)
			}
		}()
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		js := obs.NewJSONLSink(f)
		defer func() {
			if err := js.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: trace:", err)
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
	observer = obs.Multi(sinks...)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	runCtx = ctx

	if *all {
		for _, section := range []func(){table1, table2and3, figure1, figure2, scaling, metricQuality, ablation} {
			if runCtx.Err() != nil {
				fmt.Fprintln(os.Stderr, "experiments: budget exhausted; remaining sections skipped")
				return
			}
			section()
		}
		return
	}
	ran := false
	switch *table {
	case "1":
		table1()
		ran = true
	case "2", "3":
		table2and3()
		ran = true
	case "ablation":
		ablation()
		ran = true
	case "":
	default:
		fatal(fmt.Errorf("unknown table %q", *table))
	}
	switch *figure {
	case "1":
		figure1()
		ran = true
	case "2":
		figure2()
		ran = true
	case "scaling":
		scaling()
		ran = true
	case "metric":
		metricQuality()
		ran = true
	case "":
	default:
		fatal(fmt.Errorf("unknown figure %q", *figure))
	}
	if !ran {
		fmt.Fprintln(os.Stderr, "nothing selected; use -all, -table N, or -figure N")
		os.Exit(2)
	}
}

func testCases() []circuits.CircuitSpec {
	if *quick {
		return circuits.ISCAS85[:2]
	}
	return circuits.ISCAS85
}

func specFor(h *hypergraph.Hypergraph) hierarchy.Spec {
	// Paper §4: full binary tree of height 4 for every test case; weights
	// double per level (Figure 2's convention), 10% slack.
	s, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		fatal(err)
	}
	return s
}

// table1 prints the sizes of the test cases (paper Table 1).
func table1() {
	fmt.Println("TABLE 1: THE SIZES OF THE ISCAS85-CLASS TEST CASES (synthetic; see DESIGN.md)")
	fmt.Println("circuit   #nodes   #nets   #pins")
	for _, cs := range testCases() {
		h := circuits.Generate(cs, *seed)
		fmt.Printf("%-8s %7d %7d %7d\n", cs.Name, h.NumNodes(), h.NumNets(), h.NumPins())
	}
	fmt.Println()
}

// table2and3 prints the constructive comparison (Table 2) and the
// FM-refined comparison (Table 3).
func table2and3() {
	n := *flowN
	if *quick && n > 2 {
		n = 2
	}
	type row struct {
		name              string
		gfm, rfm, flow    float64
		flowCPU           float64
		gfmP, rfmP, flowP float64
		gfmI, rfmI, flowI float64
	}
	var rows []row
	for _, cs := range testCases() {
		h := circuits.Generate(cs, *seed)
		spec := specFor(h)
		r := row{name: cs.Name}

		fopt := flowOpts(n)
		fopt.PartitionsPerMetric = 2
		run := func(algo string) (cost, improv float64) {
			res, initial, err := htp.PipelineCtx(runCtx, h, spec, htp.Pipeline{Algo: algo, Seed: *seed, Flow: fopt, Observer: observer})
			if err != nil {
				fatal(err)
			}
			certify(cs.Name+"/"+algo, res)
			return res.Cost, improvement(initial, res.Cost)
		}
		t0 := time.Now()
		r.flow, _ = run("flow")
		r.flowCPU = time.Since(t0).Seconds()
		r.rfm, _ = run("rfm")
		r.gfm, _ = run("gfm")
		// "+" variants refine fresh runs of the constructives.
		r.flowP, r.flowI = run("flow+")
		r.rfmP, r.rfmI = run("rfm+")
		r.gfmP, r.gfmI = run("gfm+")
		rows = append(rows, r)
	}

	fmt.Println("TABLE 2: PARTITIONING RESULTS OF THREE ALGORITHMS")
	fmt.Println("            GFM      RFM      FLOW")
	fmt.Println("circuit     cost     cost     cost    CPU(s)")
	for _, r := range rows {
		fmt.Printf("%-8s %8.0f %8.0f %8.0f %8.1f\n", r.name, r.gfm, r.rfm, r.flow, r.flowCPU)
	}
	fmt.Println()
	fmt.Println("TABLE 3: RESULTS COMBINED WITH ITERATIVE IMPROVEMENT (\"+\" = FM refinement)")
	fmt.Println("            GFM+            RFM+            FLOW+")
	fmt.Println("circuit     cost  improv.   cost  improv.   cost  improv.")
	for _, r := range rows {
		fmt.Printf("%-8s %8.0f %6.1f%% %8.0f %6.1f%% %8.0f %6.1f%%\n",
			r.name, r.gfmP, r.gfmI, r.rfmP, r.rfmI, r.flowP, r.flowI)
	}
	fmt.Println()
}

func improvement(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * (before - after) / before
}

// figure1 renders a rooted tree hierarchy like the paper's illustration.
func figure1() {
	fmt.Println("FIGURE 1: A ROOTED TREE HIERARCHY FOR PARTITIONING (levels 3..0)")
	tr := hierarchy.NewTree(3)
	a := tr.AddChild(tr.Root())
	b := tr.AddChild(tr.Root())
	for _, p := range []int{a, b} {
		for i := 0; i < 2; i++ {
			q := tr.AddChild(p)
			tr.AddChild(q)
			tr.AddChild(q)
		}
	}
	var walk func(q int, prefix string)
	walk = func(q int, prefix string) {
		fmt.Printf("%slevel %d: vertex %d\n", prefix, tr.Level(q), q)
		for _, c := range tr.Children(q) {
			walk(int(c), prefix+"  ")
		}
	}
	walk(tr.Root(), "")
	fmt.Println()
}

// figure2 reproduces the worked example: the 16-node graph, its optimal
// partition cost, the induced spreading-metric labels, and what FLOW finds.
func figure2() {
	fmt.Println("FIGURE 2: WORKED EXAMPLE — 16 nodes, 30 unit edges, C=(4,8), w=(1,2)")
	h, spec, _ := circuits.Figure2()
	p := circuits.Figure2Partition()
	fmt.Printf("optimal partition cost (paper's construction): %.0f\n", p.Cost())
	m := metric.FromPartition(p)
	var twos, sixes int
	for e := range m.D {
		switch m.D[e] {
		case 2:
			twos++
		case 6:
			sixes++
		}
	}
	fmt.Printf("induced metric labels: %d edges with d=2 (level-0 cuts), %d with d=6 (level-1 cuts)\n", twos, sixes)
	if bad := metric.Check(m, spec); bad != nil {
		fmt.Printf("UNEXPECTED: induced metric infeasible: %v\n", bad)
	} else {
		fmt.Println("induced metric satisfies every spreading constraint (Lemma 1)")
	}
	lb, err := metric.ExactLowerBoundCtx(runCtx, h, spec, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("exact LP lower bound (Lemma 2): %.2f (converged=%v)\n", lb.Value, lb.Converged)
	res, err := htp.FlowCtx(runCtx, h, spec, flowOpts(8))
	if err != nil {
		fatal(err)
	}
	certify("figure2/flow", res)
	fmt.Printf("FLOW (N=8) finds cost %.0f\n", res.Cost)
	fmt.Println()
}

// scaling reproduces the §3.3 complexity claims: Algorithm 2 dominates and
// Algorithm 3 is near O((n+p) log n).
func scaling() {
	fmt.Println("SCALING (paper §3.3): metric computation dominates construction")
	fmt.Println("nodes    alg2(ms)  alg3(ms)  ratio")
	sizes := []int{128, 256, 512, 1024}
	if !*quick {
		sizes = append(sizes, 2048, 3584)
	}
	for _, n := range sizes {
		h := circuits.Clustered(n/32, 32, 0.25, *seed)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			fatal(err)
		}
		t0 := time.Now()
		m, _, err := inject.ComputeMetricCtx(runCtx, h, spec, injectOpts())
		if err != nil {
			fatal(err)
		}
		alg2 := time.Since(t0)
		t0 = time.Now()
		if _, err := htp.BuildCtx(runCtx, h, spec, m.D, htp.BuildOptions{}); err != nil {
			fatal(err)
		}
		alg3 := time.Since(t0)
		fmt.Printf("%5d  %9.1f %9.1f %6.1fx\n",
			h.NumNodes(), float64(alg2.Microseconds())/1000, float64(alg3.Microseconds())/1000,
			float64(alg2.Microseconds())/float64(alg3.Microseconds()+1))
	}
	fmt.Println()
}

// metricQuality checks the core premise of the approach — "network flow
// computations can uncover the hierarchical structures of circuits" (§1) —
// by comparing the spreading-metric lengths of nets that the best found
// partition cuts against those it keeps internal.
func metricQuality() {
	fmt.Println("METRIC QUALITY: are congested (long) nets the ones worth cutting?")
	fmt.Println("circuit   mean d(cut)   mean d(internal)   ratio")
	for _, cs := range testCases()[:2] {
		h := circuits.Generate(cs, *seed)
		spec := specFor(h)
		m, _, err := inject.ComputeMetricCtx(runCtx, h, spec, injectOpts())
		if err != nil {
			fatal(err)
		}
		fopt := flowOpts(2)
		fopt.Build = htp.BuildOptions{PolishCuts: true}
		res, err := htp.FlowCtx(runCtx, h, spec, fopt)
		if err != nil {
			fatal(err)
		}
		certify(cs.Name+"/metric-quality", res)
		var cutSum, cutN, inSum, inN float64
		for e := 0; e < h.NumNets(); e++ {
			if res.Partition.Span(hypergraph.NetID(e), 0) > 0 {
				cutSum += m.D[e]
				cutN++
			} else {
				inSum += m.D[e]
				inN++
			}
		}
		meanCut, meanIn := cutSum/cutN, inSum/inN
		fmt.Printf("%-8s %11.2f %18.2f %7.2fx\n", cs.Name, meanCut, meanIn, meanCut/meanIn)
	}
	fmt.Println()
}

// ablation compares the design choices DESIGN.md calls out.
func ablation() {
	fmt.Println("ABLATION: FLOW design choices (costs; lower is better)")
	cases := testCases()[:2]
	fmt.Println("variant                      " + cases[0].Name + "    " + cases[1].Name)
	variants := []struct {
		name string
		run  func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64
	}{
		{"FLOW (defaults)", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, flowOpts(2))
			if err != nil {
				fatal(err)
			}
			return certify("ablation/defaults", r).Cost
		}},
		{"coarse injection (Δ=0.5)", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, htp.FlowOptions{Iterations: 2, Seed: *seed,
				Inject: inject.Options{Delta: 0.5, Alpha: 1, Workers: *workers}})
			if err != nil {
				fatal(err)
			}
			return certify("ablation/coarse-injection", r).Cost
		}},
		{"single carve attempt", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, func() htp.FlowOptions { o := flowOpts(2); o.Build = htp.BuildOptions{CarveAttempts: 1}; return o }())
			if err != nil {
				fatal(err)
			}
			return certify("ablation/single-carve", r).Cost
		}},
		{"fixed LB (paper literal)", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, func() htp.FlowOptions { o := flowOpts(2); o.Build = htp.BuildOptions{FixedLB: true}; return o }())
			if err != nil {
				fatal(err)
			}
			return certify("ablation/fixed-lb", r).Cost
		}},
		{"8 partitions per metric", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, func() htp.FlowOptions { o := flowOpts(2); o.PartitionsPerMetric = 8; return o }())
			if err != nil {
				fatal(err)
			}
			return certify("ablation/8-per-metric", r).Cost
		}},
		{"polished cuts (§5 f.work)", func(h *hypergraph.Hypergraph, spec hierarchy.Spec) float64 {
			r, err := htp.FlowCtx(runCtx, h, spec, func() htp.FlowOptions { o := flowOpts(2); o.Build = htp.BuildOptions{PolishCuts: true}; return o }())
			if err != nil {
				fatal(err)
			}
			return certify("ablation/polish", r).Cost
		}},
	}
	results := make([][]float64, len(variants))
	for i := range results {
		results[i] = make([]float64, len(cases))
	}
	for c, cs := range cases {
		h := circuits.Generate(cs, *seed)
		spec := specFor(h)
		for i, v := range variants {
			results[i][c] = v.run(h, spec)
		}
	}
	for i, v := range variants {
		fmt.Printf("%-28s %6.0f   %6.0f\n", v.name, results[i][0], results[i][1])
	}
	fmt.Println()
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
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
		stopProfiles = func() {}
	}
	return func() { stopProfiles() }
}

var stopProfiles = func() {}

func fatal(err error) {
	stopProfiles()
	if runCtx.Err() != nil {
		// The budget (or Ctrl-C) caused this; partial output already printed
		// is valid, so leave with success.
		fmt.Fprintln(os.Stderr, "experiments: interrupted:", err)
		os.Exit(0)
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
