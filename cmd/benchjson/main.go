// Command benchjson converts `go test -bench` text output into JSON so
// benchmark runs can be recorded, diffed, and trended without scraping.
// It reads the benchmark output on stdin and writes a JSON document to the
// file named by -o (stdout by default):
//
//	go test -run=NONE -bench=Alg2Scaling -benchmem . | benchjson -o BENCH_alg2.json
//
// Every benchmark becomes one record carrying the sub-benchmark path,
// iteration count, ns/op, and any further unit pairs its line reports
// (B/op, allocs/op, and custom b.ReportMetric units like cost). Lines that
// share a name, as `go test -count=N` prints them, fold into one record
// whose units are the medians over the repeats and which carries the
// repeat count. Context lines (goos/goarch/pkg/cpu) land in the header.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark: its name, iterations, a unit -> value map
// ("ns/op", "B/op", ...), and the number of runs folded into it. Over
// several runs, Iters and every unit are medians: the middle run's value,
// or the lower of the two middle values for an even count, so each is a
// value some run reported.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
	Runs    int                `json:"runs"`
}

// Report is the whole document: environment header plus results in the
// order their names first appear.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file; empty = stdout")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parse reads `go test -bench` text output and builds the Report: header
// context lines fill the environment fields, benchmark result lines become
// Results (one per name, see fold), and anything unrecognized (PASS/FAIL,
// test logs, garbled lines) is skipped rather than treated as an error.
func parse(in io.Reader) (Report, error) {
	rep := Report{Results: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	rep.Results = fold(rep.Results)
	return rep, sc.Err()
}

// fold merges the results that share a name into one, in first-seen order.
// One run's ns/op at the default benchtime moves by far more than the code
// does; the median of repeats is steadier.
func fold(rs []Result) []Result {
	idx := map[string]int{}
	var runs [][]Result
	for _, r := range rs {
		i, ok := idx[r.Name]
		if !ok {
			i = len(runs)
			idx[r.Name] = i
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], r)
	}
	out := make([]Result, 0, len(runs))
	for _, g := range runs {
		f := Result{Name: g[0].Name, Metrics: map[string]float64{}, Runs: len(g)}
		iters := make([]int64, len(g))
		vals := map[string][]float64{}
		for i, r := range g {
			iters[i] = r.Iters
			for u, v := range r.Metrics {
				vals[u] = append(vals[u], v)
			}
		}
		f.Iters = median(iters)
		for u, vs := range vals {
			f.Metrics[u] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle of vs, the lower middle for an even count. It
// sorts vs in place.
func median[T int64 | float64](vs []T) T {
	slices.Sort(vs)
	return vs[(len(vs)-1)/2]
}

// parseLine decodes one benchmark result line of the form
//
//	BenchmarkName/sub-8   	     123	   9876543 ns/op	  12 B/op	  3 allocs/op
//
// The trailing -8 GOMAXPROCS suffix stays part of the name (it is part of
// the benchmark's identity for comparisons).
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		// NaN and ±Inf never appear in real bench output and would make the
		// report unmarshalable (encoding/json rejects them); drop the pair.
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
