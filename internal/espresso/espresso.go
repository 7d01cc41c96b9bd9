// Package espresso implements a two-level multiple-valued logic minimizer
// in the tradition of ESPRESSO-MV: the EXPAND / IRREDUNDANT / REDUCE
// iteration over positional-notation covers, with implicant checks done by
// unate-recursion tautology of cofactors rather than an explicit off-set.
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
	// MaxIterations bounds the number of expand/irredundant/reduce rounds.
	// Zero selects the default of 16 (the loop normally converges in 2-4).
	MaxIterations int
	// SkipReduce disables the REDUCE/re-EXPAND refinement, yielding a
	// single EXPAND + IRREDUNDANT pass (faster, slightly worse covers).
	SkipReduce bool
	// LastGasp enables the last_gasp escape from local minima after the
	// main loop converges (slower; occasionally saves a cube).
	LastGasp bool
	// MakeSparse lowers redundantly asserted output/multiple-valued parts
	// after minimization (fewer care entries, same cube count).
	MakeSparse bool
}

// Minimize returns a minimized cover of the incompletely specified function
// with on-set cover on and don't-care cover dc (dc may be nil or empty).
// The input covers are not modified.
func Minimize(on, dc *cube.Cover, opt Options) *cube.Cover {
	// One scratch arena serves the whole call: every pass recycles cofactor
	// buffers through it. The backing pool is keyed by structure layout,
	// so repeated calls over equal layouts (the per-candidate evaluation
	// loop) reuse the same buffers without any coordination by the caller.
	a := cube.GetArena(on.S)
	defer cube.PutArena(a)
	if m := obs.MetricsFrom(opt.Ctx); m != nil {
		m.ArenaGets.Add(1)
		if a.Reused() {
			m.ArenaReuses.Add(1)
		}
	}
	return MinimizeWith(on, dc, opt, a)
}

// MinimizeWith is Minimize with caller-provided scratch, for callers that
// run many minimizations over one layout and want to hold a single arena
// across the whole batch.
func MinimizeWith(on, dc *cube.Cover, opt Options, a *cube.Arena) *cube.Cover {
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 16
	}
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

	expandPass(sctx, f, dc, a)
	irredundantPass(sctx, f, dc, a)
	if opt.SkipReduce {
		finishWith(sctx, f, dc, opt, a)
		finishMinimize(msp, m, a, statBase, f)
		return f
	}
	best := f.Copy()
	for iter := 0; iter < opt.MaxIterations; iter++ {
		if canceled(opt.Ctx) {
			break // best is a valid minimized cover at this point
		}
		if m != nil {
			m.EspressoIters.Add(1)
		}
		reducePass(sctx, f, dc, a)
		expandPass(sctx, f, dc, a)
		irredundantPass(sctx, f, dc, a)
		if cost(f) < cost(best) {
			best = f.Copy()
			continue
		}
		if opt.LastGasp && lastGaspPass(sctx, best, dc, a) {
			f = best.Copy()
			continue
		}
		break
	}
	finishWith(sctx, best, dc, opt, a)
	finishMinimize(msp, m, a, statBase, best)
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
func expandPass(ctx context.Context, f, dc *cube.Cover, a *cube.Arena) {
	_, sp := obs.Span(ctx, "espresso.expand")
	sp.SetInt("cubes_in", int64(f.Len()))
	expandWith(f, dc, a)
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

func reducePass(ctx context.Context, f, dc *cube.Cover, a *cube.Arena) {
	_, sp := obs.Span(ctx, "espresso.reduce")
	sp.SetInt("cubes_in", int64(f.Len()))
	reduceWith(f, dc, a)
	sp.SetInt("cubes_out", int64(f.Len()))
	sp.End()
}

func lastGaspPass(ctx context.Context, f, dc *cube.Cover, a *cube.Arena) bool {
	_, sp := obs.Span(ctx, "espresso.lastgasp")
	improved := lastGaspWith(f, dc, a)
	sp.End()
	return improved
}

// canceled reports whether the (possibly nil) context is done.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

func finishWith(ctx context.Context, f, dc *cube.Cover, opt Options, a *cube.Arena) {
	if opt.MakeSparse {
		_, sp := obs.Span(ctx, "espresso.makesparse")
		makeSparseWith(f, dc, a)
		sp.End()
	}
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
// of on∪dc, checked by tautology of the cofactor. Cubes made redundant by
// the expansion of earlier cubes are removed.
func Expand(f, dc *cube.Cover) {
	a := cube.GetArena(f.S)
	expandWith(f, dc, a)
	cube.PutArena(a)
}

func expandWith(f, dc *cube.Cover, a *cube.Arena) {
	s := f.S
	// Snapshot the function: expansion is validated against the original
	// on∪dc, which must not alias the cubes being mutated. It holds each
	// cube's own copy, so every cube lies in it, as expandCubeWith
	// requires. The snapshot copies come from the arena and are recycled
	// on exit.
	all := a.NewCover()
	for _, c := range f.Cubes {
		all.Cubes = append(all.Cubes, a.CopyCube(c))
	}
	nOwn := len(all.Cubes)
	all.Cubes = append(all.Cubes, dc.Cubes...)
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
	weights := make([]int, s.Bits())
	for _, c := range f.Cubes {
		for v := 0; v < s.NumVars(); v++ {
			off := s.Offset(v)
			for p := 0; p < s.Size(v); p++ {
				if s.Test(c, v, p) {
					weights[off+p]++
				}
			}
		}
	}

	covered := make([]bool, len(f.Cubes))
	var scratch []raiseCand
	for _, i := range order {
		if covered[i] {
			continue
		}
		c := f.Cubes[i]
		scratch = expandCubeWith(s, c, all, weights, a, scratch)
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
	var kept []cube.Cube
	for i, c := range f.Cubes {
		if !covered[i] {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
	for _, c := range all.Cubes[:nOwn] {
		a.FreeCube(c)
	}
	a.FreeCover(all)
}

// raiseCand is one candidate part raise considered by EXPAND.
type raiseCand struct{ v, p, w int }

// expandCubeWith raises the lowered parts of c in place, highest weight
// first, keeping each raise for which c remains an implicant of all. The
// scratch slice is reused across calls and returned for the next one.
//
// c must lie in all. A raise of part p of variable v then adds exactly
// the slice of c with v pinned to p, so the raise is kept iff that slice
// lies in all. Only a cube of all within distance one of c can meet the
// slice (it must meet c on every variable but v), so the slice is
// checked against near, those cubes in all's order. c only grows, so
// near only grows too, and is rebuilt after each accepted raise.
func expandCubeWith(s *cube.Structure, c cube.Cube, all *cube.Cover, weights []int, a *cube.Arena, scratch []raiseCand) []raiseCand {
	cands := scratch[:0]
	for v := 0; v < s.NumVars(); v++ {
		off := s.Offset(v)
		for p := 0; p < s.Size(v); p++ {
			if !s.Test(c, v, p) {
				cands = append(cands, raiseCand{v, p, weights[off+p]})
			}
		}
	}
	slices.SortStableFunc(cands, func(x, y raiseCand) int { return cmp.Compare(y.w, x.w) })
	near := a.NewCover()
	nearCubes(near, all, c)
	slice := a.NewCube()
	for _, cd := range cands {
		copy(slice, c)
		s.ClearAll(slice, cd.v)
		s.Set(slice, cd.v, cd.p)
		if near.ContainsCube(slice) || near.CoversCubeWith(a, slice) {
			s.Set(c, cd.v, cd.p)
			nearCubes(near, all, c)
		}
	}
	a.FreeCube(slice)
	a.FreeCover(near) // its cubes alias all's
	return cands
}

// nearCubes refills near with the cubes of all within distance one of c,
// in all's order.
func nearCubes(near, all *cube.Cover, c cube.Cube) {
	near.Cubes = near.Cubes[:0]
	for _, q := range all.Cubes {
		if all.S.DistanceAtMostOne(q, c) {
			near.Cubes = append(near.Cubes, q)
		}
	}
}

// Irredundant removes redundant cubes: cubes covered by the union of the
// remaining cubes and the don't-care set. Cubes are examined smallest
// first so large cubes (likely relatively essential) are retained.
func Irredundant(f, dc *cube.Cover) {
	a := cube.GetArena(f.S)
	irredundantWith(f, dc, a)
	cube.PutArena(a)
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
// cover: a set part of a variable (with at least two set parts) is cleared
// when the minterms it alone contributes are covered by the rest of the
// cover plus the don't-care set. Reduction unblocks the next EXPAND.
func Reduce(f, dc *cube.Cover) {
	a := cube.GetArena(f.S)
	reduceWith(f, dc, a)
	cube.PutArena(a)
}

func reduceWith(f, dc *cube.Cover, a *cube.Arena) {
	s := f.S
	// Reduce larger cubes first (mirrors espresso's ordering heuristic).
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(f.Cubes[y].PopCount(), f.Cubes[x].PopCount())
	})
	rest := a.NewCover()
	slice := a.NewCube()
	for _, i := range order {
		c := f.Cubes[i]
		// Every slice checked below lies in c, and c only shrinks, so
		// the cubes of the rest of f and of dc that miss c now can never
		// meet one: rest keeps the others, in the same order.
		rest.Cubes = rest.Cubes[:0]
		for j, q := range f.Cubes {
			if j != i && s.Intersects(q, c) {
				rest.Cubes = append(rest.Cubes, q)
			}
		}
		for _, q := range dc.Cubes {
			if s.Intersects(q, c) {
				rest.Cubes = append(rest.Cubes, q)
			}
		}
		for v := 0; v < s.NumVars(); v++ {
			if s.VarCount(c, v) < 2 {
				continue
			}
			for p := 0; p < s.Size(v); p++ {
				if !s.Test(c, v, p) {
					continue
				}
				if s.VarCount(c, v) < 2 {
					break
				}
				// Slice of c with variable v pinned to part p: the minterms
				// lost if the part is lowered.
				copy(slice, c)
				s.ClearAll(slice, v)
				s.Set(slice, v, p)
				if rest.CoversCubeWith(a, slice) {
					s.Clear(c, v, p)
				}
			}
		}
	}
	a.FreeCube(slice)
	a.FreeCover(rest)
}

// Verify reports whether cover f is a correct implementation of the
// function (on, dc): f covers on, and f ⊆ on∪dc. It is exact (tautology
// based) and intended for tests.
func Verify(f, on, dc *cube.Cover) bool {
	if dc == nil {
		dc = cube.NewCover(on.S)
	}
	fdc := f.Append(dc)
	for _, c := range on.Cubes {
		if !fdc.CoversCube(c) {
			return false
		}
	}
	ondc := on.Append(dc)
	for _, c := range f.Cubes {
		if !ondc.CoversCube(c) {
			return false
		}
	}
	return true
}
