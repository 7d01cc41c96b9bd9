package encode

import (
	"context"
	"math/rand"
	"sort"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/obs"
)

// HybridOptions tunes ihybrid_code / iohybrid_code.
type HybridOptions struct {
	// MaxWork is the paper's max_work bound on the number of partial
	// encoding assignments tried per semiexact_code call; 0 means 40,000.
	MaxWork int
	// Seed drives the random fallback encoding of the pathological case
	// where every semiexact call fails.
	Seed int64
	// Ctx, when non-nil, is polled at the bounded-backtracking work tick
	// and between semiexact_code calls; cancellation aborts the run with
	// Result.Err set to the context error.
	Ctx context.Context
}

func (o *HybridOptions) defaults() {
	if o.MaxWork <= 0 {
		o.MaxWork = 40_000
	}
}

// semiexact runs semiexact_code (Section 4.1): pos_equiv on the given
// constraint set, restricted to minimum-level faces for the primary
// constraints and bounded by max_work (and by ctx, which may be nil). It
// returns the found encoding and whether all the given constraints were
// satisfied.
func semiexact(ctx context.Context, n int, sic []constraint.Constraint, cubeDim, maxWork int, oc []OCEdge) (encoding.Encoding, bool, int) {
	out := semiexactRun(ctx, n, sic, cubeDim, maxWork, oc)
	return out.enc, out.ok, out.work
}

// semiexactOut is the outcome of one semiexact run; s is the searcher
// (or its memo replay) that produced it.
type semiexactOut struct {
	enc  encoding.Encoding
	ok   bool
	work int
	s    *searcher
}

// semiexactRun is the engine behind semiexact: one pos_equiv run under
// a "search.semiexact" span, its tallies flushed into the run's metrics.
//
// The run is memoized at whole-run granularity: the probe happens
// before the intersection-closure graph is even built, so a hit skips
// BuildGraph and the search entirely. A miss whose graph fails the
// mincube_dim counting arguments at cubeDim (constraint.Graph.Fits),
// which include a constraint no proper face of the cube can host, or
// cannot place its nodes at the minimum levels semiexact uses
// (minLevelsFit), is refuted without a search: a failure with no work
// and no budget hit, memoized like an exhaustive one.
func semiexactRun(ctx context.Context, n int, sic []constraint.Constraint, cubeDim, maxWork int, oc []OCEdge) semiexactOut {
	sctx, sp := obs.Span(ctx, "search.semiexact")
	sp.SetInt("constraints", int64(len(sic)))
	key := chainKey(n, cubeDim, sic, oc)
	var s *searcher
	if v, ok := searchMemo.Get(key); ok && v.usable(maxWork) {
		s = replaySearcher(v)
		sp.SetInt("memo_hit", 1)
	} else if g := constraint.BuildGraph(n, sic); !g.Fits(cubeDim) || !minLevelsFit(g, cubeDim) {
		// The search could only fail; OC edges only add requirements.
		s = &searcher{refuted: true}
	} else {
		s = newSearcher(g, cubeDim)
		s.allLevels = false
		s.maxWork = maxWork
		s.setOC(oc)
		s.ctx = sctx
		s.solved = s.solve(nil)
	}
	sp.SetInt("work", int64(s.work))
	if s.refuted {
		sp.SetInt("refuted", 1)
	}
	sp.End()
	out := semiexactOut{ok: s.solved, work: s.work, s: s}
	if s.solved {
		out.enc = s.extract()
	}
	if !s.memoHit {
		s.memoMisses = 1
		recordSearch(key, s, out.enc, s.solved)
	}
	s.flushMetrics(obs.MetricsFrom(ctx))
	return out
}

// minLevelsFit reports whether the nodes of g can take faces of the
// k-cube at the levels semiexact allows, where every category-1 and
// category-3 node sits at exactly its minimum level ml = ceil(log2 #(ic)).
// A category-3 face lies strictly inside its father's face. A
// category-2 face is the intersection of its fathers' faces, and verify
// rejects it when it equals one of them (injectivity), so it too lies
// strictly inside each father's face. Walking g.Nodes in order visits
// fathers first (they are strictly larger), keeping an upper bound U on
// each node's face level: U = k for the universe; a node with one father
// needs ml <= U(father) - 1 and gets U = ml; a non-singleton category-2
// node gets U = min over its fathers of U - 1 and needs ml <= U.
// Category-2 singletons take a vertex of their fathers' intersection
// and father no node, so they need no bound. A node that fails its test
// has no face at any step of the search, so the search can only fail.
//
// iexact's vector runs are not refuted this way. They range category-3
// nodes over every level below the father's, and refuting a vector run
// that now stops on the budget would change Proven and the returned
// length.
func minLevelsFit(g *constraint.Graph, k int) bool {
	up := make([]int, len(g.Nodes))
	for _, nd := range g.Nodes {
		ml := minLevel(nd)
		switch {
		case nd == g.Universe:
			up[nd.Index] = k
		case len(nd.Fathers) == 1:
			if ml > up[nd.Fathers[0].Index]-1 {
				return false
			}
			up[nd.Index] = ml
		case nd.Set.Card() > 1:
			u := k
			for _, fa := range nd.Fathers {
				u = min(u, up[fa.Index]-1)
			}
			if ml > u {
				return false
			}
			up[nd.Index] = u
		}
	}
	return true
}

// chainResult is what the stage-1 greedy semiexact cycle produces.
type chainResult struct {
	enc  encoding.Encoding
	have bool
	sic  []constraint.Constraint
	ric  []constraint.Constraint
	work int
	err  error
}

// semiexactChain runs the greedy acceptance cycle shared by IHybrid and
// ioEncode stage 1: for each constraint in order, a bounded semiexact
// over the accepted set plus the candidate; accept on success.
func semiexactChain(opt HybridOptions, n int, ics []constraint.Constraint, cubeDim int) chainResult {
	var r chainResult
	for _, ic := range ics {
		if err := ctxErr(opt.Ctx); err != nil {
			r.err = err
			return r
		}
		e, ok, w := semiexact(opt.Ctx, n, append(append([]constraint.Constraint(nil), r.sic...), ic), cubeDim, opt.MaxWork, nil)
		r.work += w
		if ok {
			r.enc, r.have = e, true
			r.sic = append(r.sic, ic)
		} else {
			r.ric = append(r.ric, ic)
		}
	}
	return r
}

// prepConstraints runs constraint preprocessing (Normalize) under its own
// span, so phase tables attribute its cost honestly, publishes the number
// of nontrivial entries folded into an earlier duplicate, and returns the
// normalized list.
func prepConstraints(ctx context.Context, ics []constraint.Constraint) []constraint.Constraint {
	_, sp := obs.Span(ctx, "encode.preprocess")
	out := constraint.Normalize(ics)
	nontrivial := 0
	for _, c := range ics {
		if card := c.Set.Card(); card >= 2 && card != c.Set.N() {
			nontrivial++
		}
	}
	merged := nontrivial - len(out)
	if merged > 0 {
		obs.MetricsFrom(ctx).Add("search.constraints.merged", int64(merged))
	}
	if sp != nil {
		sp.SetInt("constraints", int64(len(out)))
		sp.SetInt("merged", int64(merged))
		sp.End()
	}
	return out
}

// ctxErr returns the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// IHybrid implements ihybrid_code (Section IV): maximize the total weight
// of satisfied input constraints on the minimum code length by a greedy
// cycle of bounded semiexact_code calls, then raise the encoding length up
// to bits with project_code, which satisfies at least one more constraint
// per added dimension. bits <= 0 selects the minimum length (no projection
// phase); bits larger than the minimum enables projection.
func IHybrid(n int, ics []constraint.Constraint, bits int, opt HybridOptions) Result {
	opt.defaults()
	cubeDim := MinLength(n)
	ics = prepConstraints(opt.Ctx, ics)
	if bits <= 0 {
		bits = cubeDim
	}
	var res Result

	// ics is sorted by decreasing weight; the chain accepts greedily.
	chain := semiexactChain(opt, n, ics, cubeDim)
	res.Work += chain.work
	if chain.err != nil {
		res.Err = chain.err
		return res
	}
	sic, ric := chain.sic, chain.ric
	enc, have := chain.enc, chain.have
	if err := ctxErr(opt.Ctx); err != nil {
		res.Err = err
		return res
	}
	if !have {
		// Rare pathological situation: even a single constraint failed.
		// Start from a random encoding so project_code can work.
		rng := rand.New(rand.NewSource(opt.Seed + 1))
		enc = RandomEncoding(n, cubeDim, rng)
		if len(ics) == 0 {
			// No constraints at all: natural binary codes.
			for i := range enc.Codes {
				enc.Codes[i] = uint64(i)
			}
		}
	}
	for len(ric) > 0 && cubeDim < bits {
		cubeDim++
		enc, sic, ric = projectCode(enc, sic, ric, cubeDim)
	}
	res.Enc = enc
	score(&res, ics)
	return res
}

// projectCode implements project_code (Section 4.2): add one dimension and
// raise into it the states of the highest-weight unsatisfied constraint
// (guaranteeing its satisfaction by Proposition 4.2.1, while preserving
// every satisfied constraint), preferring raise sets that also satisfy
// further unsatisfied constraints — states occurring often in unsatisfied
// constraints are raised first.
func projectCode(enc encoding.Encoding, sic, ric []constraint.Constraint, newBits int) (encoding.Encoding, []constraint.Constraint, []constraint.Constraint) {
	if len(ric) == 0 {
		return pad(enc, nil, newBits), sic, ric
	}
	n := enc.Len()
	// Candidate order: decreasing weight (Normalize's order is kept).
	target := ric[0]
	raise := make([]bool, n)
	for _, m := range target.Set.Members() {
		raise[m] = true
	}
	check := func(r []bool) (bad bool, extra int) {
		e := pad(enc, r, newBits)
		for _, c := range sic {
			if !Satisfied(e, c.Set) {
				return true, 0
			}
		}
		if !Satisfied(e, target.Set) {
			return true, 0
		}
		for _, c := range ric[1:] {
			if Satisfied(e, c.Set) {
				extra++
			}
		}
		return false, extra
	}
	_, bestExtra := check(raise)
	// Greedy improvement: try to fold in further unsatisfied constraints,
	// most frequent states first.
	freq := make([]int, n)
	for _, c := range ric {
		for _, m := range c.Set.Members() {
			freq[m]++
		}
	}
	order := make([]int, 0, len(ric)-1)
	for i := 1; i < len(ric); i++ {
		order = append(order, i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa, fb := 0, 0
		for _, m := range ric[order[a]].Set.Members() {
			fa += freq[m]
		}
		for _, m := range ric[order[b]].Set.Members() {
			fb += freq[m]
		}
		return fa > fb
	})
	for _, i := range order {
		trial := append([]bool(nil), raise...)
		for _, m := range ric[i].Set.Members() {
			trial[m] = true
		}
		if bad, extra := check(trial); !bad && extra > bestExtra {
			raise, bestExtra = trial, extra
		}
	}
	e := pad(enc, raise, newBits)
	var nsic, nric []constraint.Constraint
	nsic = append(nsic, sic...)
	for _, c := range ric {
		if Satisfied(e, c.Set) {
			nsic = append(nsic, c)
		} else {
			nric = append(nric, c)
		}
	}
	return e, nsic, nric
}

// pad widens enc to newBits bits, setting the new top bit for the states
// with raise[i] true (raise may be nil).
func pad(enc encoding.Encoding, raise []bool, newBits int) encoding.Encoding {
	e := encoding.New(enc.Len(), newBits)
	copy(e.Codes, enc.Codes)
	if raise != nil {
		for i := range e.Codes {
			if raise[i] {
				e.Codes[i] |= 1 << uint(newBits-1)
			}
		}
	}
	return e
}
