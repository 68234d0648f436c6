package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the runner as the solver
// child, so the integration tests below run real child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecShape checks BENCHMARK.json against the limits of its format:
// counts, name and unit syntax, bounds, and a set-up metric.
func TestSpecShape(t *testing.T) {
	s := mustSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads", len(s.Workloads))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v", w)
		}
		seen[w.Name] = true
	}
	var setupBound, maxBound float64
	for _, m := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] ||
			(m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s declared %+v", m)
			}
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxBound)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, m := range raw.PerLayer {
		if _, ok := m["bound"]; ok {
			t.Errorf("per-layer metric %v declares a bound", m["name"])
		}
	}
}

// TestSpecMatchesRunner checks that BENCHMARK.json's workloads are exactly
// the runner's, and that every per-layer metric belongs to a module some
// kind of workload measures or to one every workload reports.
func TestSpecMatchesRunner(t *testing.T) {
	s := mustSpec(t)
	var runner []string
	for _, w := range solverWorkloads {
		runner = append(runner, w.name)
	}
	for _, w := range serviceWorkloads {
		runner = append(runner, w.name)
	}
	declared := s.workloadNames()
	sort.Strings(runner)
	sort.Strings(declared)
	if strings.Join(runner, ",") != strings.Join(declared, ",") {
		t.Errorf("runner workloads %v, BENCHMARK.json %v", runner, declared)
	}
	shared := map[string]bool{"result": true, "bench": true}
	for _, m := range s.PerLayer {
		module, _, _ := strings.Cut(m.Name, ".")
		known := shared[module]
		for _, mods := range kindModules {
			for _, mod := range mods {
				known = known || mod == module
			}
		}
		if !known {
			t.Errorf("per-layer metric %s: module %q is measured by no workload", m.Name, module)
		}
	}
}

// TestEveryWorkloadProducesExactlyTheDeclaredMetrics runs the whole suite
// in -short mode and checks each workload produced every declared metric —
// except the other kind's layers, which it must not produce — and nothing
// undeclared, with every output certified.
func TestEveryWorkloadProducesExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload against a built htpd")
	}
	s := mustSpec(t)
	out := filepath.Join(t.TempDir(), "results.json")
	var stdout bytes.Buffer
	if code := run([]string{"-short", "-seed", "3", "-root", "..", "-build", t.TempDir(), "-out", out}, &stdout); code != 0 {
		t.Fatalf("suite exited %d:\n%s", code, stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Runs []suiteRecord }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != len(s.Workloads) {
		t.Fatalf("%d runs for %d workloads", len(doc.Runs), len(s.Workloads))
	}
	for _, r := range doc.Runs {
		if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: correct %v attempted %d failed %d: %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		kind := kindService
		if solverWorkloadByName(r.Workload) != nil {
			kind = kindSolver
		}
		skip := absent(kind, s.PerLayer)
		for _, m := range s.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", r.Workload, m.Name, v, ok)
			}
		}
		for _, m := range s.PerLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", r.Workload, m.Name)
			}
		}
		if n := len(r.Metrics); n != len(s.EndToEnd)+len(s.PerLayer) {
			t.Errorf("%s: %d metrics, %d declared", r.Workload, n, len(s.EndToEnd)+len(s.PerLayer))
		}
		for name := range skip {
			if r.Metrics[name].Value != 0 {
				t.Errorf("%s: %s belongs to the other kind of workload but reads %v", r.Workload, name, r.Metrics[name].Value)
			}
		}
	}
	trace, err := os.ReadFile(filepath.Join(filepath.Dir(out), "results.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{"read", "run", "coarsen", "construct", "metric", "build", "uncoarsen", "flow-refine", "certify"} {
		if !bytes.Contains(trace, []byte(`"phase":"`+ph+`"`)) {
			t.Errorf("span trace has no %s span", ph)
		}
	}
}

// TestResultLine checks the single-workload mode's last line: exactly the
// four keys, and every end-to-end metric with its unit.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs htpd")
	}
	s := mustSpec(t)
	var stdout bytes.Buffer
	args := []string{"-workload", "svc-tiny", "-short", "-seed", "2", "-trace", "0", "-root", "..", "-build", t.TempDir()}
	if code := run(args, &stdout); code != 0 {
		t.Fatalf("exit %d:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(s.EndToEnd) {
		t.Errorf("result line %+v", line)
	}
	for _, m := range s.EndToEnd {
		if v := line.Metrics[m.Name]; v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("%s = %+v", m.Name, v)
		}
	}
}
