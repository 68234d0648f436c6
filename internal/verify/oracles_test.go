package verify

import (
	"context"
	"testing"

	"repro/internal/circuits"
	"repro/internal/htp"
)

func TestLemma1OnFigure2(t *testing.T) {
	p := circuits.Figure2Partition()
	rep := Partition(p)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	Lemma1(rep, p)
	if !rep.OK() {
		t.Fatalf("Lemma 1 fails on the paper's worked example: %v", rep.Err())
	}
}

func TestLemma1DetectsMismatchedCost(t *testing.T) {
	p := circuits.Figure2Partition()
	rep := Partition(p)
	rep.Cost *= 2 // simulate a producer that mis-reported its cost
	Lemma1(rep, p)
	if rep.OK() {
		t.Fatal("Lemma 1 accepted a doubled cost")
	}
	wantIssue(t, rep, "lemma1")
}

func TestLowerBoundHolds(t *testing.T) {
	for name, mk := range map[string]func(t *testing.T) *htp.Result{
		"flow": func(t *testing.T) *htp.Result { _, _, r := solveTiny(t); return r },
		"gfm": func(t *testing.T) *htp.Result {
			h, spec := tinyInstance(t)
			r, err := htp.GFMCtx(context.Background(), h, spec, htp.GFMOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
	} {
		t.Run(name, func(t *testing.T) {
			res := mk(t)
			rep := Result(res)
			lb := LowerBound(context.Background(), rep, res.Partition, 0)
			if !rep.OK() {
				t.Fatal(rep.Err())
			}
			if lb <= 0 {
				t.Fatalf("LP proved no bound (%g) on an instance with nonzero cost %g", lb, res.Cost)
			}
		})
	}
}

func TestLowerBoundDetectsImpossiblyGoodCost(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Result(res)
	rep.Cost = res.Cost / 100 // a cost the LP bound must contradict
	lb := LowerBound(context.Background(), rep, res.Partition, 0)
	if rep.OK() {
		t.Fatalf("LP bound %g did not flag fabricated cost %g", lb, rep.Cost)
	}
	wantIssue(t, rep, "lowerbound")
}

func TestBruteForceHolds(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Result(res)
	BruteForce(rep, res.Partition)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
}

func TestBruteForceDetectsSubOptimalClaim(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Result(res)
	rep.Cost = 0.01 // claims to beat the exhaustive optimum
	BruteForce(rep, res.Partition)
	if rep.OK() {
		t.Fatal("brute-force oracle accepted an impossible cost")
	}
	wantIssue(t, rep, "brute")
}

// TestOracleChainOnFigure2 runs the certifier, Lemma 1, and the LP bound on
// the paper's worked example (16 nodes — past the exhaustive oracle's reach):
// LP optimum <= figure cost == naive cost == Lemma-1 metric value.
func TestOracleChainOnFigure2(t *testing.T) {
	p := circuits.Figure2Partition()
	rep := Certify(p, p.Cost())
	Lemma1(rep, p)
	lb := LowerBound(context.Background(), rep, p, 0)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	t.Logf("figure 2: cost %g, LP bound %g", rep.Cost, lb)
}

// TestOracleChainOnTiny is the full four-oracle chain on an instance small
// enough for everything: LP optimum <= brute-force optimum <= solver cost ==
// naive cost == Lemma-1 metric value.
func TestOracleChainOnTiny(t *testing.T) {
	_, _, res := solveTiny(t)
	rep := Result(res)
	lb := LowerBound(context.Background(), rep, res.Partition, 0)
	BruteForce(rep, res.Partition)
	if !rep.OK() {
		t.Fatal(rep.Err())
	}
	t.Logf("tiny: cost %g, LP bound %g", rep.Cost, lb)
}
