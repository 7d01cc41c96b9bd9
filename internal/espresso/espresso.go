// Package espresso implements a two-level multiple-valued logic minimizer
// in the tradition of ESPRESSO-MV: the EXPAND / IRREDUNDANT / REDUCE
// iteration over positional-notation covers. EXPAND tests raises against
// an off-set R, the complement of on∪dc computed once per minimization: a
// cube is an implicant of on∪dc exactly when it meets no cube of R, and
// every pass keeps f∪dc equal to on∪dc as a set, so R stays valid for the
// whole call. Per cube, EXPAND ORs into one blocked mask the field of
// every R cube disjoint from the cube in one variable alone, and refuses
// a raise with one bit test. IRREDUNDANT asks covering questions by
// unate-recursion tautology of cofactors; REDUCE lowers each cube in one
// step, to the supercube of the complement of the cofactored rest.
//
// The minimizer is heuristic: it returns a minimal (irredundant, prime in
// the one-part-at-a-time sense) cover whose cardinality is at a local
// minimum of the espresso loop. It is the substrate NOVA uses to derive
// input constraints (multiple-valued minimization of the symbolic FSM
// cover), to run symbolic minimization, and to measure the product-term
// cardinality of encoded PLAs.
package espresso

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"nova/internal/cube"
	"nova/internal/obs"
)

// Options tunes the minimization loop.
type Options struct {
	// Ctx, when non-nil, is polled between the EXPAND / IRREDUNDANT /
	// REDUCE passes; on cancellation Minimize returns the best valid
	// cover found so far instead of iterating further. Callers that need
	// a hard failure must check Ctx.Err() themselves after the call.
	Ctx context.Context
	// SkipReduce disables the REDUCE/re-EXPAND refinement, yielding a
	// single EXPAND + IRREDUNDANT pass (faster, slightly worse covers).
	SkipReduce bool
}

// maxIterations bounds the number of reduce/expand/irredundant rounds;
// the loop normally converges in 2-4.
const maxIterations = 16

// Minimize returns a minimized cover of the incompletely specified function
// with on-set cover on and don't-care cover dc (dc may be nil or empty).
// The input covers are not modified.
func Minimize(on, dc *cube.Cover, opt Options) *cube.Cover {
	// One scratch arena serves the whole call: every pass recycles cofactor
	// buffers through it, and it is dropped when the call returns.
	return MinimizeWith(on, dc, opt, cube.NewArena(on.S))
}

// MinimizeWith is Minimize with caller-provided scratch, for callers that
// run many minimizations over one layout and want to hold a single arena
// across the whole batch.
func MinimizeWith(on, dc *cube.Cover, opt Options, a *cube.Arena) *cube.Cover {
	// Telemetry, all nil-safe: with no tracer in opt.Ctx, sctx == opt.Ctx,
	// every span below is the no-op nil span, m is nil, and no extra
	// allocation happens (guarded by the alloc tests at the repo root).
	sctx, msp := obs.Span(opt.Ctx, "espresso.minimize")
	m := obs.MetricsFrom(opt.Ctx)
	var statBase cube.ArenaStats
	if m != nil {
		statBase = a.Stats()
		msp.SetInt("cubes_in", int64(on.Len()))
	}
	f := on.Copy()
	if dc == nil {
		dc = cube.NewCover(on.S)
	}
	f.SingleCubeContainment()
	dropEmpty(f)
	if canceled(opt.Ctx) {
		finishMinimize(msp, m, a, statBase, f)
		return f // the containment-reduced on-set is itself a valid cover
	}
	// Every pass keeps f∪dc equal to on∪dc as a set: EXPAND adds only
	// minterms of on∪dc, and IRREDUNDANT and REDUCE drop only minterms the
	// rest of f∪dc still covers. So one off-set serves every EXPAND of the
	// call.
	off := offSetWith(f, dc, a)
	best := minimizeLoop(sctx, f, dc, off, opt, m, a)
	a.Release(off)
	finishMinimize(msp, m, a, statBase, best)
	return best
}

// minimizeLoop runs EXPAND and IRREDUNDANT, then the REDUCE / EXPAND /
// IRREDUNDANT rounds unless opt.SkipReduce, and returns the best cover.
//
// EXPAND leaves every cube maximal against off, IRREDUNDANT only drops
// cubes, and off serves the whole call, so a cube REDUCE leaves unchanged
// is still maximal and the next EXPAND does not raise it again. A round
// whose EXPAND gives back best cube for cube ends before IRREDUNDANT:
// best is irredundant, IRREDUNDANT would return it unchanged, and its
// cost would tie.
func minimizeLoop(ctx context.Context, f, dc, off *cube.Cover, opt Options, m *obs.Metrics, a *cube.Arena) *cube.Cover {
	expandPass(ctx, f, off, nil, a)
	irredundantPass(ctx, f, dc, a)
	if opt.SkipReduce {
		return f
	}
	best := f.Copy()
	for iter := 0; iter < maxIterations; iter++ {
		if canceled(opt.Ctx) {
			break // best is a valid minimized cover at this point
		}
		if m != nil {
			m.EspressoIters.Add(1)
		}
		unchanged := reducePass(ctx, f, dc, a)
		expandPass(ctx, f, off, unchanged, a)
		if f.Equal(best) {
			break
		}
		irredundantPass(ctx, f, dc, a)
		if cost(f) >= cost(best) {
			break
		}
		best = f.Copy()
	}
	return best
}

// finishMinimize closes the espresso.minimize span and flushes the
// arena's counter deltas into the run metrics. No-op when untraced.
func finishMinimize(msp *obs.ActiveSpan, m *obs.Metrics, a *cube.Arena, base cube.ArenaStats, f *cube.Cover) {
	if m != nil {
		msp.SetInt("cubes_out", int64(f.Len()))
		d := a.Stats().Sub(base)
		m.TautCalls.Add(d.TautCalls)
		m.CubesAlloc.Add(d.CubesAlloc)
		m.CubesReused.Add(d.CubesReused)
	}
	msp.End()
}

// The *Pass wrappers put a span (with cube counts in/out) around each
// espresso pass. With no tracer in ctx they compile down to the plain
// pass call: Span returns a nil span whose methods do nothing.
func expandPass(ctx context.Context, f, off *cube.Cover, maximal []bool, a *cube.Arena) {
	_, sp := obs.Span(ctx, "espresso.expand")
	sp.SetInt("cubes_in", int64(f.Len()))
	expandWith(f, off, maximal, a)
	sp.SetInt("cubes_out", int64(f.Len()))
	sp.End()
}

func irredundantPass(ctx context.Context, f, dc *cube.Cover, a *cube.Arena) {
	_, sp := obs.Span(ctx, "espresso.irredundant")
	sp.SetInt("cubes_in", int64(f.Len()))
	irredundantWith(f, dc, a)
	sp.SetInt("cubes_out", int64(f.Len()))
	sp.End()
}

func reducePass(ctx context.Context, f, dc *cube.Cover, a *cube.Arena) []bool {
	_, sp := obs.Span(ctx, "espresso.reduce")
	sp.SetInt("cubes_in", int64(f.Len()))
	unchanged := reduceWith(f, dc, a)
	sp.SetInt("cubes_out", int64(f.Len()))
	sp.End()
	return unchanged
}

// canceled reports whether the (possibly nil) context is done.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// cost orders covers primarily by cube count, secondarily by total set
// parts (fewer is better after cube count ties: more literals lowered).
func cost(f *cube.Cover) int {
	parts := 0
	for _, c := range f.Cubes {
		parts += c.PopCount()
	}
	return f.Len()*1_000_000 + parts
}

func dropEmpty(f *cube.Cover) {
	var kept []cube.Cube
	for _, c := range f.Cubes {
		if !f.S.IsEmpty(c) {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// Expand raises each cube of f to a prime-like implicant: parts are raised
// one at a time (in an order favouring parts frequently set across the
// cover) and a raise is kept when the expanded cube is still an implicant
// of f∪dc, that is, when it meets no cube of the off-set, which Expand
// computes as the complement of f∪dc. Cubes made redundant by the
// expansion of earlier cubes are removed.
func Expand(f, dc *cube.Cover) {
	a := cube.NewArena(f.S)
	expandWith(f, offSetWith(f, dc, a), nil, a)
}

// offSetWith returns the complement of f∪dc from arena cubes; the caller
// hands it back with a.Release.
func offSetWith(f, dc *cube.Cover, a *cube.Arena) *cube.Cover {
	fdc := a.NewCover()
	fdc.Cubes = append(append(fdc.Cubes, f.Cubes...), dc.Cubes...)
	off := fdc.ComplementWith(a)
	a.FreeCover(fdc)
	return off
}

// expandWith is EXPAND against off, a cover of the complement of f∪dc.
// A cube whose maximal entry is true (maximal may be nil) is already
// maximal against off: raising it would keep nothing, so it only takes
// part in the containment checks.
func expandWith(f, off *cube.Cover, maximal []bool, a *cube.Arena) {
	s := f.S
	// Process larger cubes first: they are more likely to swallow others.
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(f.Cubes[y].PopCount(), f.Cubes[x].PopCount())
	})

	// Column weights: how often each part is set across the cover. Raising
	// frequently-set parts first heads toward cubes that cover many others.
	// No cube sets a bit past its last part, so bit i of word w is part
	// 64w+i.
	weights := make([]int, s.Words()*64)
	for _, c := range f.Cubes {
		for w, x := range c {
			for ; x != 0; x &= x - 1 {
				weights[w<<6|bits.TrailingZeros64(x)]++
			}
		}
	}
	raises := raiseOrder(s, weights)

	covered := make([]bool, len(f.Cubes))
	blocked := a.NewCube()
	for _, i := range order {
		if covered[i] {
			continue
		}
		c := f.Cubes[i]
		if maximal == nil || !maximal[i] {
			expandCube(s, c, off, raises, blocked)
		}
		// Single-cube containment against the expanded cube.
		for _, j := range order {
			if j == i || covered[j] {
				continue
			}
			if cube.Contains(c, f.Cubes[j]) {
				covered[j] = true
			}
		}
	}
	a.FreeCube(blocked)
	var kept []cube.Cube
	for i, c := range f.Cubes {
		if !covered[i] {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// raiseCand is one candidate part raise considered by EXPAND.
type raiseCand struct{ v, p, w int }

// raiseOrder returns every part, highest weight first and in part order
// among equal weights. The weights stay fixed for a pass, and a stable
// order restricted to a subset is that subset's stable order, so each
// cube's raises come in the order a per-cube sort of its lowered parts
// would give.
func raiseOrder(s *cube.Structure, weights []int) []raiseCand {
	raises := make([]raiseCand, 0, s.Bits())
	for v := 0; v < s.NumVars(); v++ {
		base := s.Offset(v)
		for p := 0; p < s.Size(v); p++ {
			raises = append(raises, raiseCand{v, p, weights[base+p]})
		}
	}
	slices.SortStableFunc(raises, func(x, y raiseCand) int { return cmp.Compare(y.w, x.w) })
	return raises
}

// expandCube raises the lowered parts of c in place, in the order of
// raises, keeping each raise for which c still meets no cube of off.
// blocked is scratch of one cube.
//
// c must meet no cube of off. A raise of part p of variable v then meets
// an off cube r exactly when c and r are disjoint in v alone and r admits
// p, so blocked, the OR of those fields over off, refuses a raise with one
// bit test. c only grows, so blocked only grows, and it is rebuilt after
// each accepted raise.
func expandCube(s *cube.Structure, c cube.Cube, off *cube.Cover, raises []raiseCand, blocked cube.Cube) {
	blockedParts(s, blocked, c, off)
	for _, r := range raises {
		if s.Test(c, r.v, r.p) || s.Test(blocked, r.v, r.p) {
			continue
		}
		s.Set(c, r.v, r.p)
		blockedParts(s, blocked, c, off)
	}
}

// blockedParts sets blocked to the parts whose raise in c would meet a
// cube of off.
func blockedParts(s *cube.Structure, blocked, c cube.Cube, off *cube.Cover) {
	clear(blocked)
	for _, r := range off.Cubes {
		s.OrSingleConflict(blocked, c, r)
	}
}

// Irredundant removes redundant cubes: cubes covered by the union of the
// remaining cubes and the don't-care set. Cubes are examined smallest
// first so large cubes (likely relatively essential) are retained.
func Irredundant(f, dc *cube.Cover) {
	irredundantWith(f, dc, cube.NewArena(f.S))
}

func irredundantWith(f, dc *cube.Cover, a *cube.Arena) {
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(f.Cubes[x].PopCount(), f.Cubes[y].PopCount())
	})
	removed := make([]bool, len(f.Cubes))
	rest := a.NewCover()
	for _, i := range order {
		rest.Cubes = rest.Cubes[:0]
		for j, c := range f.Cubes {
			if j != i && !removed[j] {
				rest.Cubes = append(rest.Cubes, c)
			}
		}
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		if rest.CoversCubeWith(a, f.Cubes[i]) {
			removed[i] = true
		}
	}
	a.FreeCover(rest)
	var kept []cube.Cube
	for i, c := range f.Cubes {
		if !removed[i] {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// Reduce lowers each cube of f to a smaller implicant that still leaves f a
// cover: each cube becomes the supercube of its minterms that the rest of
// the cover and the don't-care set leave uncovered. Reduction unblocks the
// next EXPAND.
func Reduce(f, dc *cube.Cover) {
	reduceWith(f, dc, cube.NewArena(f.S))
}

// reduceWith reduces the cubes of f largest first, each against the
// others as already reduced, and reports which cubes it left unchanged.
func reduceWith(f, dc *cube.Cover, a *cube.Arena) []bool {
	// Reduce larger cubes first (mirrors espresso's ordering heuristic).
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(f.Cubes[y].PopCount(), f.Cubes[x].PopCount())
	})
	unchanged := make([]bool, len(f.Cubes))
	rest := a.NewCover()
	low := a.NewCube()
	for _, i := range order {
		rest.Cubes = append(append(rest.Cubes[:0], f.Cubes[:i]...), f.Cubes[i+1:]...)
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		unchanged[i] = reduceCube(rest, f.Cubes[i], low, a)
	}
	a.FreeCube(low)
	a.FreeCover(rest)
	return unchanged
}

// reduceCube lowers c in one step, to the supercube of the minterms of c
// that rest leaves uncovered, and reports whether c is unchanged. low is
// scratch of one cube.
//
// That is the cube the one-part-at-a-time REDUCE reaches, whatever its
// order: it clears a set part of a variable with two or more set parts
// when rest covers the slice of c with the variable pinned to that part.
// A slice holding an uncovered minterm is never covered, so no uncovered
// minterm is ever lost and every part they use survives; a part none of
// them uses gives a covered slice, and another part of its variable
// survives. When rest covers c (only a cover that is not irredundant has
// such a cube), every slice is covered and each variable keeps its
// highest set part.
func reduceCube(rest *cube.Cover, c, low cube.Cube, a *cube.Arena) bool {
	if !rest.UncoveredSupercubeWith(a, c, low) {
		copy(low, c)
		keepHighestParts(rest.S, low)
	}
	if low.Equal(c) {
		return true
	}
	copy(c, low)
	return false
}

// keepHighestParts clears every set part of c but the highest one of its
// variable.
func keepHighestParts(s *cube.Structure, c cube.Cube) {
	for v := 0; v < s.NumVars(); v++ {
		for p := s.Size(v) - 1; p >= 0; p-- {
			if s.Test(c, v, p) {
				s.ClearAll(c, v)
				s.Set(c, v, p)
				break
			}
		}
	}
}

// Verify reports whether cover f is a correct implementation of the
// function (on, dc): f covers on, and f ⊆ on∪dc. It is exact (tautology
// based) and intended for tests.
func Verify(f, on, dc *cube.Cover) bool {
	if dc == nil {
		dc = cube.NewCover(on.S)
	}
	a := cube.NewArena(on.S)
	fdc := f.Append(dc)
	for _, c := range on.Cubes {
		if !fdc.CoversCubeWith(a, c) {
			return false
		}
	}
	ondc := on.Append(dc)
	for _, c := range f.Cubes {
		if !ondc.CoversCubeWith(a, c) {
			return false
		}
	}
	return true
}
