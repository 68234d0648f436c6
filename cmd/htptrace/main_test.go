package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/hierarchy"
	"repro/internal/htp"
	"repro/internal/obs"
)

// synthetic trace: a root run span (1) with two phases — one nesting a
// child — exercising parent resolution, total/self math, and both output
// modes without touching a solver.
func syntheticTrace(t *testing.T) string {
	t.Helper()
	var b bytes.Buffer
	sink := obs.NewJSONLSink(&b)
	for _, e := range []obs.Event{
		{Kind: obs.KindSpan, Phase: "coarsen", Span: 2, Parent: 1, ElapsedMS: 30},
		{Kind: obs.KindMetricDone, Span: 4, Parent: 3, ElapsedMS: 50, Round: 9},
		{Kind: obs.KindSpan, Phase: "construct", Span: 3, Parent: 1, ElapsedMS: 60, Cost: 12.5},
		{Kind: obs.KindStop, Span: 1, Reason: "converged", ElapsedMS: 100},
	} {
		obs.Emit(sink, e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTreeReconstruction(t *testing.T) {
	trees, err := readTrees(strings.NewReader(syntheticTrace(t)), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if len(tr.roots) != 1 || tr.roots[0].span != 1 {
		t.Fatalf("roots = %+v, want the single run span 1", tr.roots)
	}
	root := tr.roots[0]
	if root.name != "run" || root.totalMS != 100 {
		t.Fatalf("root = %q total %v, want run/100", root.name, root.totalMS)
	}
	// coarsen (30) + construct (60) nested in the 100ms run: self = 10.
	if root.selfMS != 10 {
		t.Fatalf("root self = %v, want 10", root.selfMS)
	}
	construct := tr.nodes[3]
	if construct.name != "construct" || construct.totalMS != 60 {
		t.Fatalf("construct = %q total %v", construct.name, construct.totalMS)
	}
	// The 50ms metric nests inside construct: self = 10.
	if construct.selfMS != 10 {
		t.Fatalf("construct self = %v, want 10", construct.selfMS)
	}
	if metric := tr.nodes[4]; metric.name != "metric" || metric.selfMS != 50 {
		t.Fatalf("metric = %q self %v", metric.name, metric.selfMS)
	}

	var table bytes.Buffer
	tr.writeTable(&table)
	for _, want := range []string{"run", "construct", "coarsen", "metric", "12.5"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table missing %q:\n%s", want, table.String())
		}
	}
	var folded bytes.Buffer
	tr.writeFolded(&folded)
	for _, want := range []string{
		"trace;run 10000",
		"trace;run;construct 10000",
		"trace;run;construct;metric 50000",
		"trace;run;coarsen 30000",
	} {
		if !strings.Contains(folded.String(), want+"\n") && !strings.HasSuffix(folded.String(), want) {
			t.Errorf("folded output missing %q:\n%s", want, folded.String())
		}
	}
}

func TestJobFilterSplitsTraces(t *testing.T) {
	var b bytes.Buffer
	sink := obs.NewJSONLSink(&b)
	obs.Emit(sink, obs.Event{Kind: obs.KindStop, Job: "j-1", Span: 1, ElapsedMS: 10})
	obs.Emit(sink, obs.Event{Kind: obs.KindStop, Job: "j-2", Span: 1, ElapsedMS: 20})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	trees, err := readTrees(strings.NewReader(b.String()), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want one per job", len(trees))
	}
	only, err := readTrees(strings.NewReader(b.String()), "j-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].job != "j-2" || only[0].wallMS != 20 {
		t.Fatalf("-job filter returned %+v", only)
	}
}

// requireNamedSpans fails for every span of tr that no event names, which
// the table would print as "span-N".
func requireNamedSpans(t *testing.T, tr *tree) {
	t.Helper()
	for _, n := range tr.nodes {
		if n.nameRank == 0 {
			t.Errorf("span %d (%d events, %.1fms) carries no name", n.span, n.events, n.totalMS)
		}
	}
}

// TestFlatPipelineTraceNamesEverySpan traces each flat "+" pipeline on
// c1355: the constructor's run span nests under the pipeline's, and its
// stop, which the pipeline suppresses, must still leave it a name. GFM's
// bisect and merge phases are spans below its run span.
func TestFlatPipelineTraceNamesEverySpan(t *testing.T) {
	cs, err := circuits.ByName("c1355")
	if err != nil {
		t.Fatal(err)
	}
	h := circuits.Generate(cs, 1)
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), 4, hierarchy.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"flow+", "rfm+", "gfm+"} {
		var b bytes.Buffer
		sink := obs.NewJSONLSink(&b)
		if _, _, err := htp.PipelineCtx(context.Background(), h, spec, htp.Pipeline{
			Algo: algo, Flow: htp.FlowOptions{Iterations: 2}, Observer: sink,
		}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		trees, err := readTrees(bytes.NewReader(b.Bytes()), "")
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != 1 || len(trees[0].roots) != 1 || trees[0].roots[0].name != "run" {
			t.Fatalf("%s: want one tree with one root named run", algo)
		}
		if stops := strings.Count(b.String(), `"ev":"stop"`); stops != 1 {
			t.Fatalf("%s: trace has %d stop events, want exactly 1", algo, stops)
		}
		requireNamedSpans(t, trees[0])
		if algo == "gfm+" {
			// GFM's two phases are spans of their own under GFM's run.
			var phases []*node
			for _, n := range trees[0].nodes {
				if n.name == "gfm-bisect" || n.name == "gfm-merge" {
					phases = append(phases, n)
				}
			}
			if len(phases) != 2 || phases[0].name == phases[1].name {
				t.Fatalf("gfm+: want one gfm-bisect and one gfm-merge span, got %d phase spans", len(phases))
			}
			for _, n := range phases {
				if p := trees[0].nodes[n.parent]; p == nil || p.name != "gfm" {
					t.Errorf("gfm+: %s span %d nests under span %d, want a span named gfm", n.name, n.span, n.parent)
				}
			}
		}
	}
}

// TestMultilevelTraceReconstruction is the acceptance pin: trace a real
// multilevel run on a 65536-gate synthetic circuit, rebuild the span tree,
// and check the top-level phase totals account for the measured wall clock
// within 5% — i.e. the span plumbing loses no time to untracked gaps.
func TestMultilevelTraceReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a 65536-gate multilevel run; not a -short test")
	}
	h := circuits.Generate(circuits.Scaled(65536), 11)
	const height = 4
	spec, err := hierarchy.BinaryTreeSpec(h.TotalSize(), height,
		hierarchy.GeometricWeights(height, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	sink := obs.NewJSONLSink(&b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	start := time.Now()
	if _, _, err := htp.PipelineCtx(ctx, h, spec, htp.Pipeline{
		Seed:       11,
		Multilevel: &htp.Multilevel{},
		Observer:   sink,
	}); err != nil {
		t.Fatal(err)
	}
	wallMS := obs.Millis(time.Since(start))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	trees, err := readTrees(bytes.NewReader(b.Bytes()), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	if len(tr.roots) != 1 {
		t.Fatalf("run reconstructed %d roots, want 1", len(tr.roots))
	}
	root := tr.roots[0]
	if root.totalMS > wallMS {
		t.Fatalf("root total %.1fms exceeds measured wall %.1fms", root.totalMS, wallMS)
	}
	if root.totalMS < 0.95*wallMS {
		t.Fatalf("root total %.1fms covers less than 95%% of wall %.1fms", root.totalMS, wallMS)
	}
	var phaseSum float64
	phases := map[string]bool{}
	for _, c := range root.children {
		phaseSum += c.totalMS
		phases[c.name] = true
	}
	for _, want := range []string{"coarsen", "construct", "uncoarsen"} {
		if !phases[want] {
			t.Errorf("root children %v missing phase %q", phases, want)
		}
	}
	if phaseSum < 0.95*root.totalMS || phaseSum > root.totalMS+1e-9 {
		t.Fatalf("phase totals sum %.1fms, want within 5%% of run total %.1fms", phaseSum, root.totalMS)
	}
	// Per-level spans made it through coarsening and uncoarsening.
	var coarsenLevels, uncoarsenLevels int
	for _, n := range tr.nodes {
		if strings.HasPrefix(n.name, "coarsen-level-") {
			coarsenLevels++
		}
		if strings.HasPrefix(n.name, "uncoarsen-level-") {
			uncoarsenLevels++
		}
	}
	if coarsenLevels == 0 || uncoarsenLevels == 0 {
		t.Fatalf("level spans missing: %d coarsen, %d uncoarsen", coarsenLevels, uncoarsenLevels)
	}
	requireNamedSpans(t, tr)
	t.Logf("wall %.0fms, root %.0fms, %d spans, %d coarsen + %d uncoarsen levels",
		wallMS, root.totalMS, len(tr.nodes), coarsenLevels, uncoarsenLevels)
}
