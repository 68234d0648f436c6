package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Per-layer metrics
// carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the workloads and metrics this runner
// reports, with each end-to-end metric's bound.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the declared metrics defs out of what a run
// produced, in declaration order. A metric in absent — a layer the
// workload never exercises — reads 0. It is an error for a run to produce
// a metric BENCHMARK.json does not declare, or to miss one it does; the
// metrics that are there are returned either way.
func (s *benchSpec) selectMetrics(defs []metricDef, got map[string]float64, absent map[string]bool) (map[string]metricValue, []string, error) {
	declared := map[string]bool{}
	for _, m := range s.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
	}
	var undeclared, missing []string
	for name := range got {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	out := make(map[string]metricValue, len(defs))
	order := make([]string, 0, len(defs))
	for _, m := range defs {
		v, ok := got[m.Name]
		if !ok && !absent[m.Name] {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
		order = append(order, m.Name)
	}
	var err error
	switch {
	case len(undeclared) > 0:
		sort.Strings(undeclared)
		err = fmt.Errorf("metrics not declared in BENCHMARK.json: %v", undeclared)
	case len(missing) > 0:
		err = fmt.Errorf("declared metrics not produced: %v", missing)
	}
	return out, order, err
}
