package encode

import (
	"context"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/obs"
)

// ExactOptions tunes iexact_code.
type ExactOptions struct {
	// Ctx, when non-nil, is polled at the backtracking work tick and
	// between primary-level-vector searches; cancellation aborts the run
	// with Result.Err set to the context error.
	Ctx context.Context
	// MaxWork bounds the number of face-assignment attempts; the budget
	// is split evenly across the explored dimensions so the search is not
	// starved at the (often infeasible) smallest dimensions. 0 means
	// 5,000,000. When every dimension fails within its share the returned
	// Result has GaveUp set (the paper's iexact likewise fails to
	// complete on the hardest examples).
	MaxWork int
}

// kWindow is the number of dimensions above the mincube_dim lower bound
// IExact explores, up to the 64-bit code limit. No cap sits at the state
// count: the subposet-equivalence conditions often admit solutions only
// with slack dimensions (the paper's iexact reports e.g. 8 bits for the
// 7-state dk14 and 11 for the 24-state donfile), while the trivial
// upper bound #(S) of Section 3.3.1 is unreachable within any practical
// budget anyway.
const kWindow = 8

// IExact implements iexact_code (Section III): find an encoding of n
// symbols satisfying every input constraint while minimizing the encoding
// length. It answers the embedding decision problem for increasing cube
// dimensions starting at the mincube_dim lower bound; for each dimension
// it enumerates the primary level vectors in increasing slack order and
// runs the pos_equiv backtracking for each.
//
// A constructive full-satisfaction encoding (the projection coding of
// Proposition 4.2.1 iterated) provides an upper bound: when the exhaustive
// search cannot settle the dimensions below the bound within the work
// budget, the constructive encoding is returned with Proven=false — the
// counterpart of the paper's "**: not minimal" entries. GaveUp is reserved
// for instances with no encoding at all within the 64-bit code limit.
func IExact(n int, ics []constraint.Constraint, opt ExactOptions) (res Result) {
	sctx, sp := obs.Span(opt.Ctx, "search.iexact")
	opt.Ctx = sctx
	m := obs.MetricsFrom(opt.Ctx)
	defer func() {
		if sp != nil {
			sp.SetInt("work", int64(res.Work))
			sp.SetInt("bits", int64(res.Enc.Bits))
		}
		sp.End()
	}()
	ics = prepConstraints(opt.Ctx, ics)
	if opt.MaxWork <= 0 {
		opt.MaxWork = 5_000_000
	}
	upper := SatisfyAll(n, ics)
	g := constraint.BuildGraph(n, ics)
	mincube := g.MinCubeDim()
	maxK := min(mincube+kWindow, 64)
	// Dimensions at or above the constructive bound need no search.
	if len(upper.Unsatisfied) == 0 && upper.Enc.Bits <= 64 && maxK >= upper.Enc.Bits {
		maxK = upper.Enc.Bits - 1
	}
	perK := opt.MaxWork
	if span := maxK - mincube + 1; span > 1 {
		perK = opt.MaxWork / span
	}
	if perK < 1 {
		perK = 1
	}
	totalWork := 0
	anyBudget := false
	for k := mincube; k <= maxK; k++ {
		kWork := 0
		// Primary constraints: category-1 non-singletons get a level from
		// the primary level vector; levels range over
		// [ceil(log2 #(ic)), k-1].
		var primaries []*constraint.Node
		for _, nd := range g.Primaries() {
			if nd.Set.Card() > 1 {
				primaries = append(primaries, nd)
			}
		}
		lo := make([]int, len(primaries))
		hi := make([]int, len(primaries))
		feasible := true
		for i, nd := range primaries {
			lo[i] = minLevel(nd)
			hi[i] = k - 1
			if lo[i] > hi[i] {
				feasible = false
			}
		}
		if !feasible {
			continue
		}
		// Enumerate the primary level vectors by increasing total slack
		// over the minimum levels: low-slack vectors are both the most
		// likely to embed tightly and the ones the area metric prefers.
		// The vector list is capped; each vector receives an equal work
		// slice with two geometrically growing retry rounds.
		const maxVectors = 4096
		vectors, truncated := slackVectors(lo, hi, maxVectors)
		slice := perK / (2 * len(vectors))
		if slice < 2000 {
			slice = 2000
		}
		kBudget := truncated
		for round := 0; round < 2 && kWork < perK; round++ {
			work, roundBudget, winner, err := iexactRound(opt, m, g, k, primaries, vectors, slice, perK, kWork)
			kWork += work
			totalWork += work
			if err != nil {
				res.Err = err
				res.Work = totalWork
				return res
			}
			if winner != nil {
				res.Enc = winner.extract()
				res.Work = totalWork
				// Minimal iff every smaller dimension was exhausted.
				res.Proven = !anyBudget
				score(&res, ics)
				return res
			}
			if roundBudget {
				kBudget = true
			} else if !truncated {
				// Every vector exhausted within its slice: dimension k is
				// proven infeasible.
				kBudget = false
				break
			}
			slice *= 8
		}
		if kBudget {
			anyBudget = true
		}
	}
	if err := ctxErr(opt.Ctx); err != nil {
		res.Err = err
		res.Work = totalWork
		return res
	}
	// Exhaustive search below the bound failed (or ran out of budget):
	// fall back to the constructive encoding.
	if len(upper.Unsatisfied) == 0 && upper.Enc.Bits <= 64 {
		res = upper
		res.Work = totalWork
		res.Proven = !anyBudget // minimal iff all smaller dims exhausted
		return res
	}
	res.Work = totalWork
	res.GaveUp = true
	return res
}

// iexactRound runs one retry round of IExact's per-dimension vector
// loop. It returns the work consumed, the round's budget flag, the
// winning searcher (nil if none), and any context error.
func iexactRound(opt ExactOptions, m *obs.Metrics, g *constraint.Graph, k int,
	primaries []*constraint.Node, vectors [][]int, slice, perK, kWork int) (work int, roundBudget bool, winner *searcher, err error) {
	for _, dimvect := range vectors {
		if err = ctxErr(opt.Ctx); err != nil {
			return work, roundBudget, nil, err
		}
		w := slice
		if rem := perK - kWork - work; w > rem {
			w = rem
		}
		if w <= 0 {
			return work, true, nil, nil
		}
		s := runVector(opt.Ctx, g, k, primaries, dimvect, w)
		s.flushMetrics(m)
		work += s.work
		if s.solved {
			return work, roundBudget, s, nil
		}
		if s.budget {
			roundBudget = true
		}
	}
	return work, roundBudget, nil, nil
}

// runVector runs one primary-level-vector search with the given work cap.
// Runs are memoized by (graph content, k, level vector); a hit returns a
// replayed searcher whose observable state matches the original run's
// (see replaySearcher).
func runVector(ctx context.Context, g *constraint.Graph, k int,
	primaries []*constraint.Node, dimvect []int, maxWork int) *searcher {
	key := vectorKey(g, k, dimvect)
	if v, ok := searchMemo.Get(key); ok && v.usable(maxWork) {
		return replaySearcher(v)
	}
	s := newSearcher(g, k)
	s.allLevels = true
	s.maxWork = maxWork
	s.ctx = ctx
	for i, nd := range primaries {
		s.setLevel(nd, dimvect[i])
	}
	s.solved = s.solve(nil)
	s.memoMisses = 1
	var enc encoding.Encoding
	if s.solved {
		enc = s.extract()
	}
	recordSearch(key, s, enc, s.solved)
	return s
}

// slackVectors lists level vectors within [lo, hi] ordered by increasing
// total slack Σ(v[i]-lo[i]); within a slack tier, balanced vectors (small
// maximum per-position slack) come first — uniform extra level is the
// common shape of feasible embeddings. The list is capped at max vectors;
// truncated reports whether the space was cut off.
func slackVectors(lo, hi []int, max int) (out [][]int, truncated bool) {
	n := len(lo)
	if n == 0 {
		return [][]int{{}}, false
	}
	maxSlack := 0
	for i := range lo {
		maxSlack += hi[i] - lo[i]
	}
	v := make([]int, n)
	for s := 0; s <= maxSlack && !truncated; s++ {
		// cap = the maximum slack any single position may take; growing it
		// from the balanced minimum emits balanced vectors first.
		minCap := (s + n - 1) / n
		for cap := minCap; cap <= s && !truncated; cap++ {
			var rec func(i, slack int, hitCap bool) bool
			rec = func(i, slack int, hitCap bool) bool {
				if len(out) >= max {
					return false
				}
				if i == n {
					if slack == 0 && (hitCap || cap == 0) {
						out = append(out, append([]int(nil), v...))
					}
					return true
				}
				for d := 0; d <= slack && d <= cap && lo[i]+d <= hi[i]; d++ {
					v[i] = lo[i] + d
					if !rec(i+1, slack-d, hitCap || d == cap) {
						return false
					}
				}
				return true
			}
			if !rec(0, s, false) {
				truncated = true
			}
			if cap == 0 {
				break // slack 0 has a single vector
			}
		}
	}
	return out, truncated
}
