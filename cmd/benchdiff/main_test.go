package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(results ...Result) *Report { return &Report{Results: results} }

func res(name string, metrics map[string]float64) Result {
	return Result{Name: name, Iters: 1, Metrics: metrics}
}

func TestDiffFlagsRegressions(t *testing.T) {
	base := report(
		res("BenchmarkA/n128", map[string]float64{"allocs/op": 26, "ns/op": 1000}),
		res("BenchmarkA/n512", map[string]float64{"allocs/op": 30, "ns/op": 5000}),
		res("BenchmarkGone", map[string]float64{"allocs/op": 1}),
	)
	cur := report(
		res("BenchmarkA/n128", map[string]float64{"allocs/op": 26, "ns/op": 9000}), // ns ignored: not watched
		res("BenchmarkA/n512", map[string]float64{"allocs/op": 45, "ns/op": 5000}), // +50% allocs: regression
		res("BenchmarkNew", map[string]float64{"allocs/op": 2}),
	)
	var b strings.Builder
	got, _ := diff(&b, base, cur, []string{"allocs/op"}, 0.10)
	if got != 1 {
		t.Fatalf("diff found %d regressions, want 1\n%s", got, b.String())
	}
	out := b.String()
	for _, want := range []string{"REGRESSION", "+50.0%", "gone", "new"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ns/op") {
		t.Errorf("unwatched metric leaked into the table:\n%s", out)
	}
}

func TestDiffWithinTolerancePasses(t *testing.T) {
	base := report(res("B", map[string]float64{"allocs/op": 100}))
	cur := report(res("B", map[string]float64{"allocs/op": 104}))
	var b strings.Builder
	if got, _ := diff(&b, base, cur, []string{"allocs/op"}, 0.05); got != 0 {
		t.Fatalf("a +4%% delta under 5%% tolerance regressed: %d\n%s", got, b.String())
	}
	// Improvements never fail, whatever the tolerance.
	if got, _ := diff(&b, cur, base, []string{"allocs/op"}, 0); got != 0 {
		t.Fatalf("an improvement counted as regression: %d", got)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	base := report(res("Z", map[string]float64{"allocs/op": 0}))
	cur := report(res("Z", map[string]float64{"allocs/op": 3}))
	var b strings.Builder
	if got, _ := diff(&b, base, cur, []string{"allocs/op"}, 0.50); got != 1 {
		t.Fatalf("0 -> 3 allocs must regress regardless of relative tolerance: %d", got)
	}
	if !strings.Contains(b.String(), "+inf") {
		t.Errorf("zero-baseline delta not marked +inf:\n%s", b.String())
	}
}

// A gate that matched nothing checked nothing: when every current name
// carries a -N GOMAXPROCS suffix the baseline lacks, no pair is compared
// and the command must fail rather than pass vacuously.
func TestRunFailsWhenNothingCompared(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", report(res("BenchmarkAlg2Scaling/n128", map[string]float64{"allocs/op": 26})))
	suffixed := write("suffixed.json", report(res("BenchmarkAlg2Scaling/n128-2", map[string]float64{"allocs/op": 26})))
	same := write("same.json", report(res("BenchmarkAlg2Scaling/n128", map[string]float64{"allocs/op": 26})))

	var stdout, stderr strings.Builder
	if code := run([]string{"-tolerance", "0", base, suffixed}, &stdout, &stderr); code == 0 {
		t.Fatalf("no common benchmark, yet exit 0:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "nothing compared") {
		t.Errorf("stderr does not say nothing was compared: %q", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-tolerance", "0", base, same}, &stdout, &stderr); code != 0 {
		t.Fatalf("identical snapshots: exit %d, stderr %q", code, stderr.String())
	}
}
