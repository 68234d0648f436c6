package main

import (
	"strings"
	"testing"
)

func TestParseFullBenchOutput(t *testing.T) {
	const in = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkAlg2Scaling/n2048/w1-8         	       3	 412345678 ns/op	       987 cost
BenchmarkAlg2Scaling/n2048/w8-8         	       9	 112345678 ns/op	       987 cost
BenchmarkDisabledObserver-8             	1000000000	         0.2503 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.345s
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" || rep.CPU != "Intel(R) Xeon(R)" {
		t.Fatalf("header = %+v", rep)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(rep.Results), rep.Results)
	}
	// Sub-benchmark paths survive whole, GOMAXPROCS suffix included.
	r := rep.Results[0]
	if r.Name != "BenchmarkAlg2Scaling/n2048/w1-8" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Iters != 3 {
		t.Fatalf("iters = %d", r.Iters)
	}
	if r.Metrics["ns/op"] != 412345678 || r.Metrics["cost"] != 987 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
	// -benchmem unit pairs all land in the map.
	m := rep.Results[2].Metrics
	if m["ns/op"] != 0.2503 || m["B/op"] != 0 || m["allocs/op"] != 0 {
		t.Fatalf("benchmem metrics = %v", m)
	}
}

func TestParseSkipsMalformedLines(t *testing.T) {
	const in = `BenchmarkNoIters-8	notanumber	123 ns/op
BenchmarkTooShort-8	42
BenchmarkNoUnits-8	42	elephant giraffe
Benchmark
some stray log line
BenchmarkGood/sub-8	100	50.5 ns/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results, want only the good line: %+v", len(rep.Results), rep.Results)
	}
	r := rep.Results[0]
	if r.Name != "BenchmarkGood/sub-8" || r.Iters != 100 || r.Metrics["ns/op"] != 50.5 {
		t.Fatalf("result = %+v", r)
	}
}

func TestParseEmptyInput(t *testing.T) {
	rep, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results == nil || len(rep.Results) != 0 {
		t.Fatalf("want empty non-nil results, got %#v", rep.Results)
	}
}

// TestParseFoldsRepeatedRows: `go test -count=3` prints each benchmark three
// times, interleaved with the others; each name becomes one record, in
// first-seen order, whose units are the per-unit medians and whose Runs
// counts the repeats. An even count takes the lower middle value.
func TestParseFoldsRepeatedRows(t *testing.T) {
	const in = `BenchmarkA/n1	10	300 ns/op	16 B/op	2 allocs/op
BenchmarkB	4	50 ns/op
BenchmarkA/n1	12	100 ns/op	16 B/op	2 allocs/op	7 cost
BenchmarkB	6	70 ns/op
BenchmarkA/n1	11	200 ns/op	48 B/op	3 allocs/op
`
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want one per name: %+v", len(rep.Results), rep.Results)
	}
	a, b := rep.Results[0], rep.Results[1]
	if a.Name != "BenchmarkA/n1" || a.Runs != 3 || a.Iters != 11 {
		t.Fatalf("A = %+v, want 3 runs with median iters 11", a)
	}
	want := map[string]float64{"ns/op": 200, "B/op": 16, "allocs/op": 2, "cost": 7}
	if len(a.Metrics) != len(want) {
		t.Fatalf("A metrics = %v, want %v", a.Metrics, want)
	}
	for u, v := range want {
		if a.Metrics[u] != v {
			t.Fatalf("A metrics = %v, want %v", a.Metrics, want)
		}
	}
	if b.Name != "BenchmarkB" || b.Runs != 2 || b.Iters != 4 || b.Metrics["ns/op"] != 50 {
		t.Fatalf("B = %+v, want 2 runs, lower-middle iters 4 and ns/op 50", b)
	}
}
