// Command benchdiff compares two benchmark snapshots produced by benchjson
// (BENCH_alg2.json, BENCH_tables.json) and fails when a watched metric
// regresses past a tolerance — the regression gate `make benchdiff` runs
// against the committed baseline.
//
// Usage:
//
//	benchdiff [-metric allocs/op,B/op] [-tolerance 0.05] baseline.json current.json
//
// For every benchmark present in both snapshots it prints a delta table of
// the watched metrics; a positive delta beyond the tolerance (current
// worse than baseline by more than the fraction) is a regression and the
// exit status is 1. Improvements and disappearing/new benchmarks are
// reported but never fail the gate: the committed baseline may cover more
// rungs than a quick CI run re-measures. A run that compares no
// (benchmark, metric) pair at all also exits 1: a gate that matched
// nothing checked nothing (for instance when the current run's names carry
// a -N GOMAXPROCS suffix the baseline's lack).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Result and Report mirror benchjson's output document.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		metrics   = fs.String("metric", "allocs/op", "comma-separated metrics to gate on")
		tolerance = fs.Float64("tolerance", 0.0, "allowed relative regression (0.05 = +5%)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [-metric m1,m2] [-tolerance f] baseline.json current.json")
		return 2
	}
	base, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	cur, err := readReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	watch := strings.Split(*metrics, ",")
	regressions, compared := diff(stdout, base, cur, watch, *tolerance)
	if compared == 0 {
		fmt.Fprintf(stderr, "benchdiff: no common benchmark carries the watched metrics %v: nothing compared\n", watch)
		return 1
	}
	if regressions > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d metric(s) regressed beyond %.1f%%\n", regressions, *tolerance*100)
		return 1
	}
	return 0
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// diff prints the per-benchmark delta table for the watched metrics and
// returns how many exceeded the tolerance and how many (benchmark, metric)
// pairs it compared. Comparison is by benchmark name; the baseline drives
// the order.
func diff(w io.Writer, base, cur *Report, watch []string, tolerance float64) (regressions, compared int) {
	curByName := map[string]Result{}
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	baseNames := map[string]bool{}
	fmt.Fprintf(w, "%-44s %-12s %14s %14s %9s\n", "benchmark", "metric", "baseline", "current", "delta")
	for _, b := range base.Results {
		baseNames[b.Name] = true
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "%-44s %-12s %14s %14s %9s\n", b.Name, "-", "-", "-", "gone")
			continue
		}
		for _, m := range watch {
			m = strings.TrimSpace(m)
			bv, bok := b.Metrics[m]
			cv, cok := c.Metrics[m]
			if !bok || !cok {
				continue
			}
			compared++
			delta := "0.0%"
			rel := 0.0
			if bv != 0 {
				rel = (cv - bv) / math.Abs(bv)
				delta = fmt.Sprintf("%+.1f%%", rel*100)
			} else if cv != 0 {
				rel = math.Inf(1)
				delta = "+inf"
			}
			mark := ""
			if rel > tolerance {
				mark = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-44s %-12s %14.6g %14.6g %9s%s\n", b.Name, m, bv, cv, delta, mark)
		}
	}
	for _, c := range cur.Results {
		if !baseNames[c.Name] {
			fmt.Fprintf(w, "%-44s %-12s %14s %14s %9s\n", c.Name, "-", "-", "-", "new")
		}
	}
	return regressions, compared
}
