package cube

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Cover is a set of cubes sharing one Structure. The zero Cover with a nil
// Structure is not usable; create covers with NewCover.
type Cover struct {
	S     *Structure
	Cubes []Cube
}

// NewCover returns an empty cover over structure s.
func NewCover(s *Structure) *Cover { return &Cover{S: s} }

// Add appends cube c to the cover. The cube is not copied.
func (f *Cover) Add(c Cube) { f.Cubes = append(f.Cubes, c) }

// Len returns the number of cubes in the cover.
func (f *Cover) Len() int { return len(f.Cubes) }

// Copy returns a deep copy of the cover.
func (f *Cover) Copy() *Cover {
	g := NewCover(f.S)
	g.Cubes = make([]Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Copy()
	}
	return g
}

// Equal reports whether f and g hold bit-identical cubes in the same
// order.
func (f *Cover) Equal(g *Cover) bool {
	return slices.EqualFunc(f.Cubes, g.Cubes, Cube.Equal)
}

// Without returns a shallow cover containing every cube except index i.
func (f *Cover) Without(i int) *Cover {
	g := NewCover(f.S)
	g.Cubes = make([]Cube, 0, len(f.Cubes)-1)
	g.Cubes = append(g.Cubes, f.Cubes[:i]...)
	g.Cubes = append(g.Cubes, f.Cubes[i+1:]...)
	return g
}

// Append returns a shallow cover containing the cubes of f followed by the
// cubes of each g.
func (f *Cover) Append(gs ...*Cover) *Cover {
	out := NewCover(f.S)
	out.Cubes = append(out.Cubes, f.Cubes...)
	for _, g := range gs {
		out.Cubes = append(out.Cubes, g.Cubes...)
	}
	return out
}

// String renders the cover one cube per line.
func (f *Cover) String() string {
	var b strings.Builder
	for _, c := range f.Cubes {
		b.WriteString(f.S.String(c))
		b.WriteByte('\n')
	}
	return b.String()
}

// cofactorCoverWith builds F/c from arena buffers, dropping every cube
// contained in another cube of the cofactor (row dominance on the
// personality matrix). That is sound for its callers, the tautology and
// complement recursions, which read only the union of the cofactor.
func (f *Cover) cofactorCoverWith(a *Arena, c Cube) *Cover {
	s := f.S
	g := a.NewCover()
	for _, q := range f.Cubes {
		if !s.Intersects(q, c) {
			continue
		}
		r := a.NewCube()
		s.cofactorInto(r, q, c)
		g.Cubes = append(g.Cubes, r)
	}
	if len(g.Cubes) > 1 {
		g.pruneDominatedRows(a)
	}
	return g
}

// pruneDominatedRows drops every cube contained in another cube of the
// cover, recycling the dropped cubes. Of two equal cubes the first is kept.
// A cube with fewer set parts contains no cube with more, so those pairs
// are skipped without a containment test; pop holds the set parts of the
// cube in each slot of cs and moves with it.
func (g *Cover) pruneDominatedRows(a *Arena) {
	cs := g.Cubes
	pop := a.counts(len(cs))
	for i, c := range cs {
		pop[i] = c.PopCount()
	}
	kept := cs[:0]
	for i, ci := range cs {
		dominated := false
		for j, cj := range cs {
			if i == j || cj == nil || pop[j] < pop[i] {
				continue
			}
			if Contains(cj, ci) && (j < i || !Contains(ci, cj)) {
				dominated = true
				break
			}
		}
		if dominated {
			cs[i] = nil
			a.FreeCube(ci)
		} else {
			pop[len(kept)] = pop[i]
			kept = append(kept, ci)
		}
	}
	g.Cubes = kept
}

// pickSplitVar selects the branching variable for the unate-recursion
// procedures: the variable that is not full in the largest number of cubes
// (the "most binate"), the lowest such variable on a tie. Returns -1 when
// every cube is full in every variable. The binary fields of the bmask
// words are counted word-parallel, as IsEmpty tests them: bit i of x&(x>>1)
// ANDs the two parts of the binary field at i.
func (f *Cover) pickSplitVar(a *Arena) int {
	s := f.S
	active := a.counts(s.nbits) // cubes not full in v, at v's first part
	for _, c := range f.Cubes {
		for w, m := range s.bmask {
			x := c[w]
			for e := m &^ (x & (x >> 1)); e != 0; e &= e - 1 {
				active[w<<6|bits.TrailingZeros64(e)]++
			}
		}
		for _, v := range s.other {
			if !s.VarFull(c, v) {
				active[s.offsets[v]]++
			}
		}
	}
	best, bestActive := -1, 0
	for v, off := range s.offsets {
		if active[off] > bestActive {
			best, bestActive = v, active[off]
		}
	}
	return best
}

// Tautology reports whether the cover covers the entire minterm space. The
// implementation is the Shannon/unate-recursion procedure: quick checks for
// a universe row and for a missing column, then branching on the most binate
// variable and recursing on every value cofactor. Scratch comes from a
// fresh arena; use TautologyWith when the caller already holds one.
func (f *Cover) Tautology() bool {
	return f.TautologyWith(NewArena(f.S))
}

// TautologyWith is Tautology with caller-provided scratch. The recursion
// allocates cofactor covers from the arena and recycles them per node.
func (f *Cover) TautologyWith(a *Arena) bool {
	a.stat.TautCalls++
	if len(f.Cubes) == 0 {
		return false
	}
	s := f.S
	// Universe row: immediate tautology.
	for _, c := range f.Cubes {
		if s.IsFull(c) {
			return true
		}
	}
	// Missing column: some (variable, part) never admitted by any cube, so
	// the minterms with that value are uncovered.
	or := a.NewCube()
	for _, c := range f.Cubes {
		Or(or, or, c)
	}
	fullCols := s.IsFull(or)
	a.FreeCube(or)
	if !fullCols {
		return false
	}
	// Unate-leaf reject: no universe row, and in every variable all non-full
	// fields agree. Pick, per such variable, a part outside the shared field;
	// only a universe row could cover that minterm, so it is uncovered.
	if f.weaklyUnate() {
		return false
	}
	v := f.pickSplitVar(a)
	if v < 0 {
		// No cube is full (checked above) yet every cube is full in every
		// variable: impossible; covered for robustness.
		return true
	}
	// Special case: exactly one active variable. Every cube full elsewhere,
	// so tautology iff the column OR of v is full — already verified.
	if f.singleActiveVar(v) {
		return true
	}
	res := true
	sel := a.CopyCube(s.full)
	for p := 0; p < s.Size(v); p++ {
		s.ClearAll(sel, v)
		s.Set(sel, v, p)
		g := f.cofactorCoverWith(a, sel)
		ok := g.TautologyWith(a)
		a.Release(g)
		if !ok {
			res = false
			break
		}
	}
	a.FreeCube(sel)
	return res
}

// weaklyUnate reports whether, in every variable, all cubes with a non-full
// field carry the same field. (A variable full in every cube is trivially
// weakly unate.) For a cover with no universe row this certifies
// non-tautology; see TautologyWith.
func (f *Cover) weaklyUnate() bool {
	s := f.S
	for v := 0; v < s.NumVars(); v++ {
		var ref Cube
		for _, c := range f.Cubes {
			if s.VarFull(c, v) {
				continue
			}
			if ref == nil {
				ref = c
				continue
			}
			m := s.vmask[v]
			for w := s.vlo[v]; w <= s.vhi[v]; w++ {
				if (ref[w]^c[w])&m[w] != 0 {
					return false
				}
			}
		}
	}
	return true
}

// singleActiveVar reports whether v is the only variable with a non-full
// field anywhere in the cover.
func (f *Cover) singleActiveVar(v int) bool {
	s := f.S
	for _, c := range f.Cubes {
		for u := 0; u < s.NumVars(); u++ {
			if u != v && !s.VarFull(c, u) {
				return false
			}
		}
	}
	return true
}

// CoversCube reports whether the cover contains cube c, i.e. every minterm
// of c is covered by some cube of f. Implemented as Tautology(F/c).
func (f *Cover) CoversCube(c Cube) bool {
	return f.CoversCubeWith(NewArena(f.S), c)
}

// CoversCubeWith is CoversCube with caller-provided scratch.
func (f *Cover) CoversCubeWith(a *Arena, c Cube) bool {
	if f.S.IsEmpty(c) {
		return true
	}
	g := f.cofactorCoverWith(a, c)
	ok := g.TautologyWith(a)
	a.Release(g)
	return ok
}

// UncoveredSupercubeWith sets dst to the supercube of the minterms of c
// that no cube of f covers, and reports whether there are any; when there
// are none, dst is left empty. It ORs the cubes of the complement of F/c
// and intersects the result with c. That is exact: a minterm of the
// complement that takes part p of c in some variable gives an uncovered
// minterm of c taking p once each of its other variables is moved into
// c, and no cube of the complement is empty.
func (f *Cover) UncoveredSupercubeWith(a *Arena, c, dst Cube) bool {
	g := f.cofactorCoverWith(a, c)
	comp := a.NewCover()
	g.complementInto(a, comp)
	a.Release(g)
	clear(dst)
	for _, q := range comp.Cubes {
		Or(dst, dst, q)
	}
	a.Release(comp)
	And(dst, dst, c)
	return !f.S.IsEmpty(dst)
}

// ContainsCube reports whether some single cube of f contains c — the cheap
// word-parallel pre-check before the full covering recursion.
func (f *Cover) ContainsCube(c Cube) bool {
	for _, q := range f.Cubes {
		if Contains(q, c) {
			return true
		}
	}
	return false
}

// Complement returns a cover of the complement of f over the full minterm
// space, using Shannon expansion on the most binate variable with a
// single-cube terminal case. The result is made minimal with single-cube
// containment only.
func (f *Cover) Complement() *Cover {
	return f.ComplementWith(NewArena(f.S))
}

// ComplementWith is Complement with caller-provided scratch. The returned
// cover and its cubes come from the arena and belong to the caller, who
// may hand them back with a.Release. Every caller reads only the set of
// minterms the result covers, never its cubes one by one, so the
// recursion prunes dominated rows in its cofactors and leaves
// single-cube containment to the top.
func (f *Cover) ComplementWith(a *Arena) *Cover {
	out := a.NewCover()
	f.complementInto(a, out)
	if len(out.Cubes) > 1 {
		out.pruneDominatedRows(a)
	}
	return out
}

// complementInto appends arena cubes covering the complement of f to out.
func (f *Cover) complementInto(a *Arena, out *Cover) {
	s := f.S
	if len(f.Cubes) == 0 {
		out.Cubes = append(out.Cubes, a.CopyCube(s.full))
		return
	}
	for _, c := range f.Cubes {
		if s.IsFull(c) {
			return // complement of universe is empty
		}
	}
	if len(f.Cubes) == 1 {
		s.complementCubeInto(a, out, f.Cubes[0])
		return
	}
	v := f.pickSplitVar(a)
	if v < 0 {
		return
	}
	start := len(out.Cubes)
	sel := a.CopyCube(s.full)
	for p := 0; p < s.Size(v); p++ {
		s.ClearAll(sel, v)
		s.Set(sel, v, p)
		g := f.cofactorCoverWith(a, sel)
		n := len(out.Cubes)
		g.complementInto(a, out)
		a.Release(g)
		// Every cofactor cube is full in v, so every cube of its
		// complement is too: pin v to p.
		for _, c := range out.Cubes[n:] {
			s.ClearAll(c, v)
			s.Set(c, v, p)
		}
	}
	a.FreeCube(sel)
	out.mergeAdjacent(a, start, v)
}

// complementCubeInto appends the complement of a single cube to out as a
// disjoint cover: for each variable with a non-full field, one cube
// admitting the missing parts of that variable and the full range of
// later variables, restricted to the cube's parts on earlier variables
// (disjoint sharp).
func (s *Structure) complementCubeInto(a *Arena, out *Cover, c Cube) {
	prefix := a.CopyCube(s.full)
	for v := range s.sizes {
		m := s.vmask[v]
		if !s.VarFull(c, v) {
			r := a.CopyCube(prefix)
			// Variable v admits exactly the parts missing from c's field.
			for w := s.vlo[v]; w <= s.vhi[v]; w++ {
				r[w] = (r[w] &^ m[w]) | (m[w] &^ c[w])
			}
			out.Cubes = append(out.Cubes, r)
		}
		// Restrict the prefix to the cube's field for subsequent entries.
		for w := s.vlo[v]; w <= s.vhi[v]; w++ {
			prefix[w] &^= m[w] &^ c[w]
		}
	}
	a.FreeCube(prefix)
}

// mergeAdjacent merges each cube of f.Cubes[start:] into the first earlier
// cube of that range that equals it outside variable v, OR-ing the v
// fields and recycling the merged cube. It is the cheap "personality
// merge" applied after a Shannon split on v to curb complement growth.
func (f *Cover) mergeAdjacent(a *Arena, start, v int) {
	m := f.S.vmask[v]
	kept := f.Cubes[:start]
next:
	for _, c := range f.Cubes[start:] {
		for _, k := range kept[start:] {
			if equalOutside(k, c, m) {
				Or(k, k, c)
				a.FreeCube(c)
				continue next
			}
		}
		kept = append(kept, c)
	}
	f.Cubes = kept
}

// equalOutside reports whether a and b agree on every part outside mask m.
func equalOutside(a, b, m Cube) bool {
	for w := range a {
		if (a[w]^b[w])&^m[w] != 0 {
			return false
		}
	}
	return true
}

// SingleCubeContainment removes every cube contained in another single cube
// of the cover (and duplicate cubes). Larger cubes are preferred.
func (f *Cover) SingleCubeContainment() {
	sort.Slice(f.Cubes, func(i, j int) bool {
		return f.Cubes[i].PopCount() > f.Cubes[j].PopCount()
	})
	var kept []Cube
	for _, c := range f.Cubes {
		contained := false
		for _, k := range kept {
			if Contains(k, c) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// Minterms enumerates every minterm covered by f exactly once and calls fn
// with a minterm cube (one part per variable). Enumeration is in
// lexicographic part order. Intended for small spaces (verification).
func (f *Cover) Minterms(fn func(Cube)) {
	s := f.S
	m := s.NewCube()
	var rec func(v int)
	rec = func(v int) {
		if v == s.NumVars() {
			for _, c := range f.Cubes {
				if Contains(c, m) {
					fn(m.Copy())
					return
				}
			}
			return
		}
		for p := 0; p < s.Size(v); p++ {
			s.Set(m, v, p)
			rec(v + 1)
			s.Clear(m, v, p)
		}
	}
	rec(0)
}
