package encode

import (
	"context"
	"math/rand"
	"testing"

	"nova/internal/constraint"
	"nova/internal/obs"
)

// unprunedSemiexact is the reference for semiexactRun's pruning: the
// searcher with semiexact's levels and the work cap maxWork (0 =
// unbounded), but with no memo, no refutation and no orbit breaks.
func unprunedSemiexact(n int, ics []constraint.Constraint, k, maxWork int) *searcher {
	s := newSearcher(constraint.BuildGraph(n, ics), k)
	s.maxWork = maxWork
	s.noPrune = true
	s.solved = s.solve(nil)
	return s
}

// nestedInstance draws 1-4 constraints over n states, about half of them
// proper subsets of an earlier one, so category-3 chains are common.
func nestedInstance(rng *rand.Rand, n int) []constraint.Constraint {
	var ics []constraint.Constraint
	for i := 1 + rng.Intn(4); i > 0; i-- {
		s := constraint.NewSet(n)
		if len(ics) > 0 && rng.Intn(2) == 0 {
			if base := ics[rng.Intn(len(ics))].Set.Members(); len(base) > 2 {
				perm := rng.Perm(len(base))
				for _, j := range perm[:2+rng.Intn(len(base)-2)] {
					s.Add(base[j])
				}
				ics = append(ics, constraint.Constraint{Set: s, Weight: 1})
				continue
			}
		}
		for _, x := range rng.Perm(n)[:2+rng.Intn(n-1)] {
			s.Add(x)
		}
		ics = append(ics, constraint.Constraint{Set: s, Weight: 1})
	}
	return ics
}

// TestMinLevelRefutationSound checks that minLevelsFit refutes only
// steps the search fails on. On random graphs (N <= 9, k from MinLength
// to 4, nested constraints common), every graph it rejects must defeat
// an unbounded search with semiexact's levels and no pruning, and it
// must reject graphs that pass Graph.Fits, or it would add nothing. The
// nested pair {1,2,6,9} ⊃ {1,2,6} over 10 states at k = 4 passes Fits,
// yet both sets need a 2-face and the smaller must lie strictly inside
// the larger: it is refuted with no work, counted in search.refuted, and
// counted again when replayed from the memo.
func TestMinLevelRefutationSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var graphs, refuted, pastFits int
	for graphs < 2000 {
		n := 3 + rng.Intn(7)
		k := MinLength(n) + rng.Intn(5-MinLength(n))
		g := constraint.BuildGraph(n, nestedInstance(rng, n))
		graphs++
		if minLevelsFit(g, k) {
			continue
		}
		refuted++
		if g.Fits(k) {
			pastFits++
		}
		s := newSearcher(g, k)
		s.noPrune = true
		if s.solve(nil) {
			t.Fatalf("N=%d k=%d: minLevelsFit refutes a graph the search embeds: %v", n, k, s.Faces())
		}
	}
	t.Logf("%d graphs, %d refuted, %d of them passing Graph.Fits", graphs, refuted, pastFits)
	if pastFits == 0 {
		t.Fatal("the refutation never fired on a graph that passes Graph.Fits")
	}

	searchMemoReset()
	defer searchMemoReset()
	ics := []constraint.Constraint{
		{Set: constraint.MustFromString("0110001001"), Weight: 1},
		{Set: constraint.MustFromString("0110001000"), Weight: 1},
	}
	if g := constraint.BuildGraph(10, ics); !g.Fits(4) || minLevelsFit(g, 4) {
		t.Fatalf("nested pair: Fits(4)=%v minLevelsFit=%v, want true, false", g.Fits(4), minLevelsFit(g, 4))
	}
	if np := unprunedSemiexact(10, ics, 4, 40_000); np.solved || !np.budget || np.work != 40_001 {
		t.Fatalf("unpruned nested pair: solved=%v budget=%v work=%d, want a budget stop after 40001 units", np.solved, np.budget, np.work)
	}
	tracer := obs.New()
	ctx := obs.With(context.Background(), tracer)
	for run, wantRefuted := range []int64{1, 2} {
		out := semiexactRun(ctx, 10, ics, 4, 40_000, nil)
		c := tracer.Metrics().Counters()
		if out.ok || !out.s.refuted || out.work != 0 || out.s.budget || out.s.memoHit != (run == 1) {
			t.Fatalf("run %d: ok=%v refuted=%v work=%d budget=%v memoHit=%v, want a refutation with no work (replayed on run 1)",
				run, out.ok, out.s.refuted, out.work, out.s.budget, out.s.memoHit)
		}
		if c["search.refuted"] != wantRefuted || c["search.work"] != 0 {
			t.Fatalf("run %d: search.refuted=%d search.work=%d, want %d and 0", run, c["search.refuted"], c["search.work"], wantRefuted)
		}
	}
}
