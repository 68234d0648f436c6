// Golden pins for every solver variant the CLIs expose: the exact cost and
// a fingerprint of the leaf assignment for gfm, rfm, flow, their "+"
// forms, the V-cycle (ml) and the flow-refined V-cycle (mlf) on c1355 and
// c2670, the V-cycle with every other coarse constructor ("ml rfm+" is
// htpart -multilevel -algo rfm+) on c2670, plus the two flat flow-refine
// routes htpart runs. The settings are htpcheck -suite's with every worker
// count at 1, so the values do not depend on the machine's CPU count. A
// change that moves one of these numbers changes what the program computes
// and must re-pin it on purpose.
package repro_test

import (
	"context"
	"hash/fnv"
	"strings"
	"testing"

	"repro"
	"repro/internal/verify"
)

// leafFingerprint is the FNV-64a hash of LeafOf, four little-endian bytes
// per node.
func leafFingerprint(p *repro.Partition) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, leaf := range p.LeafOf {
		buf[0], buf[1], buf[2], buf[3] = byte(leaf), byte(leaf>>8), byte(leaf>>16), byte(leaf>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// solveVariant runs one variant the way htpcheck -suite (and, for the
// "-flow-refine" routes and the V-cycle's other constructors, htpart)
// does, at seed 1 and one worker. It returns the result and the
// constructed cost.
func solveVariant(t *testing.T, variant string, h *repro.Hypergraph, spec repro.Spec) (*repro.Result, float64) {
	t.Helper()
	var p repro.Pipeline
	switch ml, strategy, _ := strings.Cut(variant, " "); ml {
	case "ml", "mlf":
		p = repro.Pipeline{Algo: strategy, Seed: 1, Multilevel: &repro.Multilevel{Workers: 1}}
		if variant == "mlf" {
			p.FlowRefine = &repro.FlowRefineOptions{Certify: verify.Certifier()}
		}
	default:
		algo, _, flowRefine := strings.Cut(variant, " -flow-refine")
		p = repro.Pipeline{Algo: algo, Seed: 1,
			Flow: repro.FlowOptions{Iterations: 2, Inject: repro.InjectOptions{Workers: 1}}}
		if flowRefine {
			p.FlowRefine = &repro.FlowRefineOptions{Workers: 1, Certify: verify.Certifier()}
		}
	}
	res, constructed, err := repro.PipelineCtx(context.Background(), h, spec, p)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	return res, constructed
}

// paperInstance is a generated ISCAS-85 circuit at seed 1 with the paper's
// height-4 binary tree spec.
func paperInstance(t *testing.T, circuit string) (*repro.Hypergraph, repro.Spec) {
	t.Helper()
	cs, err := repro.CircuitByName(circuit)
	if err != nil {
		t.Fatal(err)
	}
	h := repro.GenerateCircuit(cs, 1)
	spec, err := repro.BinaryTreeSpec(h.TotalSize(), 4, repro.GeometricWeights(4, 2), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return h, spec
}

func TestVariantsGolden(t *testing.T) {
	type pin struct {
		cost float64
		hash uint64
	}
	golden := map[string]map[string]pin{
		"c1355": {
			"gfm":               {5872, 0x2a730b2309c3115},
			"rfm":               {4086, 0x225a9d71a20892a1},
			"flow":              {4040, 0x6f6278fb6cbed2af},
			"gfm+":              {4245, 0xd41248a55b48c111},
			"rfm+":              {3752, 0xcbbfed061c026be8},
			"flow+":             {3591, 0xebfb650ca58417a2},
			"ml":                {4173, 0xcb1fa59f2256a4da},
			"mlf":               {4137, 0x19284b0f405baaa8},
			"flow -flow-refine": {3984, 0xda2a572a10e78240},
			"gfm+ -flow-refine": {4235, 0xdcdd1dcbb2cc57e0},
		},
		"c2670": {
			"gfm":      {8462, 0x7d3d632aeab5fe83},
			"rfm":      {5358, 0x8406b4a2bed446f},
			"flow":     {8180, 0xe5ba964da1e1fc29},
			"gfm+":     {6202, 0xce407e5d1790f8eb},
			"rfm+":     {5044, 0x1a99c849898d4d2b},
			"flow+":    {7344, 0xd159608f370bb530},
			"ml":       {7073, 0xc38b1717bc739155},
			"mlf":      {7035, 0xd64b7beb743b931d},
			"ml flow+": {6901, 0xbc9b84f31d0e9f53},
			"ml rfm":   {6165, 0xe45cabacf1111816},
			"ml rfm+":  {5283, 0x32e6d3b854c1fc65},
			"ml gfm":   {6618, 0x6391c03267a6d8a7},
			"ml gfm+":  {5287, 0xde7d636cf483760d},
		},
	}
	for _, circuit := range []string{"c1355", "c2670"} {
		h, spec := paperInstance(t, circuit)
		for _, variant := range []string{"gfm", "rfm", "flow", "gfm+", "rfm+", "flow+", "ml", "mlf",
			"ml flow+", "ml rfm", "ml rfm+", "ml gfm", "ml gfm+",
			"flow -flow-refine", "gfm+ -flow-refine"} {
			want, ok := golden[circuit][variant]
			if !ok {
				continue
			}
			res, _ := solveVariant(t, variant, h, spec)
			if rep := verify.Result(res); !rep.OK() {
				t.Fatalf("%s/%s failed certification: %v", circuit, variant, rep.Err())
			}
			got := pin{res.Cost, leafFingerprint(res.Partition)}
			if got != want {
				t.Errorf("%s/%s: cost %.0f hash %#x, want cost %.0f hash %#x",
					circuit, variant, got.cost, got.hash, want.cost, want.hash)
			}
		}
	}
}

// TestVCycleReportsConstructedCost pins the constructed cost the V-cycle's
// "+" runs return (htpart's "initial"): the coarse constructor's cost, which
// projection carries to the fine level unchanged, before the coarse FM
// step and uncoarsening lower it to the final cost.
func TestVCycleReportsConstructedCost(t *testing.T) {
	want := map[string]map[string][2]float64{ // {constructed, final}
		"c1355": {"ml flow+": {4173, 3648}, "ml rfm+": {4086, 3752}, "ml gfm+": {5872, 4245}},
		"c2670": {"ml flow+": {8266, 6901}, "ml rfm+": {6770, 5283}, "ml gfm+": {9023, 5287}},
	}
	for _, circuit := range []string{"c1355", "c2670"} {
		h, spec := paperInstance(t, circuit)
		for _, variant := range []string{"ml flow+", "ml rfm+", "ml gfm+"} {
			res, constructed := solveVariant(t, variant, h, spec)
			if got := [2]float64{constructed, res.Cost}; got != want[circuit][variant] {
				t.Errorf("%s/%s: constructed %.0f, final %.0f; want %.0f, %.0f", circuit, variant,
					got[0], got[1], want[circuit][variant][0], want[circuit][variant][1])
			}
		}
	}
}
