package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzBenchjsonParse feeds arbitrary text through parse and checks the
// structural invariants every downstream consumer of the JSON relies on:
// result names carry the Benchmark prefix and appear once, iteration and
// run counts are positive, every result has at least one metric, and the
// whole report marshals to JSON (which rejects NaN/Inf, so no such value
// may survive parsing).
func FuzzBenchjsonParse(f *testing.F) {
	f.Add("goos: linux\ngoarch: amd64\npkg: repro\ncpu: Xeon\n" +
		"BenchmarkFoo/sub-8   \t     123\t   9876543 ns/op\t      12 B/op\t       3 allocs/op\nPASS\n")
	f.Add("BenchmarkBar 1 2 ns/op")
	f.Add("BenchmarkAlg2Scaling/n=4096/workers=8-8 5 1.5e6 ns/op 42.5 cost")
	f.Add("BenchmarkTruncated 12\n")
	f.Add("BenchmarkNoNumber abc def ns/op\n")
	f.Add("BenchmarkNegIters -5 10 ns/op\n")
	f.Add("BenchmarkNaN 1 NaN ns/op\n")
	f.Add("BenchmarkInf 1 +Inf ns/op\n")
	f.Add("Benchmark")
	f.Add("")
	f.Add("pkg: \ncpu: \nok  \trepro\t1.2s\n")
	f.Add("BenchmarkRep 9000000000000000000 1 ns/op\nBenchmarkRep 9000000000000000000 3 ns/op 2 B/op\n")

	f.Fuzz(func(t *testing.T, input string) {
		rep, err := parse(strings.NewReader(input))
		if err != nil {
			return // scanner errors (e.g. over-long lines) are the caller's problem
		}
		seen := map[string]bool{}
		for _, r := range rep.Results {
			if !strings.HasPrefix(r.Name, "Benchmark") {
				t.Fatalf("result name %q lacks the Benchmark prefix", r.Name)
			}
			if seen[r.Name] {
				t.Fatalf("result name %q appears twice", r.Name)
			}
			seen[r.Name] = true
			if r.Iters <= 0 || r.Runs <= 0 {
				t.Fatalf("result %q has non-positive iteration or run count %d, %d", r.Name, r.Iters, r.Runs)
			}
			if len(r.Metrics) == 0 {
				t.Fatalf("result %q has no metrics", r.Name)
			}
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("report does not marshal: %v", err)
		}
	})
}
