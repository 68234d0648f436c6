// Command htpcheck re-verifies hierarchical tree partitions with code that
// shares nothing with the solvers that produced them (see internal/verify).
// It recomputes cost, span, capacity/branch feasibility, and leaf coverage
// from scratch, and cross-checks the paper's certificates: Lemma 1 (the
// induced spreading metric's value equals the partition cost), the LP lower
// bound of Lemma 2, and the exhaustive optimum on tiny instances.
//
// Three modes:
//
//	htpcheck -partition dump.json -netlist c.net    # verify a saved dump
//	htpcheck -replay -netlist c.net -algo flow+     # re-run htpart's pipeline and verify
//	htpcheck -suite [-quick]                        # all eight variants on the ISCAS suite
//
// Exit status 0 means every claim checked out; 1 means a discrepancy, with
// one line per issue on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/flowrefine"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/hypergraph"
	"repro/internal/inject"
	"repro/internal/verify"
)

func main() {
	var (
		partition = flag.String("partition", "", "verify this partition dump (JSON) against -netlist")
		netlist   = flag.String("netlist", "", "netlist file (extended hMETIS format)")
		replay    = flag.Bool("replay", false, "re-run the solver pipeline on -netlist and verify the result")
		suite     = flag.Bool("suite", false, "verify all eight algorithm variants on the generated ISCAS suite")
		quick     = flag.Bool("quick", false, "suite: only the two smallest circuits")
		algo      = flag.String("algo", "flow", "replay algorithm: flow, rfm, gfm, flow+, rfm+, gfm+, ml, mlf")
		height    = flag.Int("height", 4, "replay hierarchy height L")
		wbase     = flag.Float64("wbase", 2, "replay level weight base")
		slack     = flag.Float64("slack", 1.1, "replay capacity slack")
		seed      = flag.Int64("seed", 1, "random seed (replay and suite)")
		iters     = flag.Int("n", 2, "FLOW iterations (replay and suite)")
		workers   = flag.Int("workers", 0, "metric computation workers; 0 = NumCPU")
		lbRounds  = flag.Int("lb", 0, "also prove an LP lower bound with this many cutting-plane rounds (small instances only)")
		brute     = flag.Bool("brute", false, "also cross-check against the exhaustive optimum (tiny instances only)")
	)
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	modes := 0
	for _, on := range []bool{*partition != "", *replay, *suite} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "htpcheck: pick exactly one of -partition, -replay, -suite")
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *partition != "":
		checkDump(ctx, *partition, *netlist, *lbRounds, *brute)
	case *replay:
		checkReplay(ctx, *netlist, *algo, *height, *wbase, *slack, *seed, *iters, *workers, *lbRounds, *brute)
	case *suite:
		checkSuite(ctx, *quick, *seed, *iters, *workers)
	}
}

// checkDump verifies a saved PartitionDump against its netlist.
func checkDump(ctx context.Context, dumpPath, netlistPath string, lbRounds int, brute bool) {
	if netlistPath == "" {
		fatal(fmt.Errorf("-partition needs -netlist"))
	}
	h, err := hypergraph.ReadFile(netlistPath)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(dumpPath)
	if err != nil {
		fatal(err)
	}
	d, err := hierarchy.ReadDump(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	p, err := d.Partition(h)
	if err != nil {
		fatal(err)
	}
	rep := verify.Certify(p, d.Cost)
	if rep.OK() {
		verify.Lemma1(rep, p)
	}
	finish(ctx, rep, p, d.Cost, lbRounds, brute)
}

// checkReplay re-runs a solver pipeline exactly as htpart would and verifies
// the emitted result.
func checkReplay(ctx context.Context, netlistPath, algo string, height int, wbase, slack float64, seed int64, iters, workers, lbRounds int, brute bool) {
	if netlistPath == "" {
		fatal(fmt.Errorf("-replay needs -netlist"))
	}
	h, err := hypergraph.ReadFile(netlistPath)
	if err != nil {
		fatal(err)
	}
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), height,
		hierarchy.GeometricWeights(height, wbase), slack)
	if err != nil {
		fatal(err)
	}
	res, err := solve(ctx, algo, h, spec, seed, iters, workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %s on %s: cost %.0f (%s)\n", algo, netlistPath, res.Cost, res.Stop)
	rep := verify.Result(res)
	finish(ctx, rep, res.Partition, res.Cost, lbRounds, brute)
}

// finish runs the optional oracles, reports, and exits.
func finish(ctx context.Context, rep *verify.Report, p *hierarchy.Partition, cost float64, lbRounds int, brute bool) {
	if lbRounds > 0 {
		lb := verify.LowerBound(ctx, rep, p, lbRounds)
		fmt.Printf("LP lower bound: %.2f (reported cost %.2f)\n", lb, cost)
	}
	if brute {
		verify.BruteForce(rep, p)
	}
	if err := rep.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("verified: cost %.0f, %d blocks, no discrepancies\n", rep.Cost, len(rep.BlockSizes))
}

// checkSuite certifies every algorithm variant on the generated ISCAS
// circuits. Every result must pass the full independent verification
// (partition recomputation, Lemma 1, anytime-contract checks); any
// discrepancy is reported per (circuit, variant) and fails the run.
func checkSuite(ctx context.Context, quick bool, seed int64, iters, workers int) {
	cases := circuits.ISCAS85
	if quick {
		cases = cases[:2]
	}
	variants := []string{"gfm", "rfm", "flow", "gfm+", "rfm+", "flow+", "ml", "mlf"}
	bad := 0
	fmt.Printf("circuit    variant   cost      wall    status\n")
	for _, cs := range cases {
		h := circuits.Generate(cs, seed)
		spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
		if err != nil {
			fatal(err)
		}
		for _, v := range variants {
			if ctx.Err() != nil {
				fatal(fmt.Errorf("interrupted: %w", ctx.Err()))
			}
			t0 := time.Now()
			res, err := solve(ctx, v, h, spec, seed, iters, workers)
			if err != nil {
				fmt.Printf("%-10s %-8s %9s %7.1fs  solver error: %v\n", cs.Name, v, "-", time.Since(t0).Seconds(), err)
				bad++
				continue
			}
			rep := verify.Result(res)
			status := "ok"
			if !rep.OK() {
				bad++
				status = "DISCREPANCY"
			}
			fmt.Printf("%-10s %-8s %9.0f %7.1fs  %s\n", cs.Name, v, res.Cost, time.Since(t0).Seconds(), status)
			for _, issue := range rep.Issues {
				fmt.Fprintf(os.Stderr, "htpcheck: %s/%s: %s: %s\n", cs.Name, v, issue.Check, issue.Detail)
			}
		}
	}
	if bad > 0 {
		fatal(fmt.Errorf("%d of %d runs failed verification", bad, len(cases)*len(variants)))
	}
	fmt.Printf("all %d runs verified with zero discrepancies\n", len(cases)*len(variants))
}

// solve runs an algorithm variant the way htpart does. "ml" is the
// multilevel V-cycle with its own coarse-stage iteration defaults; "mlf"
// is "ml" plus the flow-based pairwise refinement step on the finest level,
// with every accepted move batch re-certified in-line by internal/verify.
// Every other name is a flat pipeline.
func solve(ctx context.Context, algo string, h *hypergraph.Hypergraph, spec hierarchy.Spec, seed int64, iters, workers int) (*htp.Result, error) {
	p := htp.Pipeline{Algo: algo, Seed: seed,
		Flow: htp.FlowOptions{Iterations: iters, Inject: inject.Options{Workers: workers}}}
	if algo == "ml" || algo == "mlf" {
		p = htp.Pipeline{Seed: seed, Multilevel: &htp.Multilevel{Workers: workers}}
	}
	if algo == "mlf" {
		p.FlowRefine = &flowrefine.Options{Certify: verify.Certifier()}
	}
	res, _, err := htp.PipelineCtx(ctx, h, spec, p)
	return res, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "htpcheck:", err)
	os.Exit(1)
}
