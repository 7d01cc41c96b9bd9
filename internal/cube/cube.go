// Package cube implements the multiple-valued cube and cover algebra that
// underlies two-level logic minimization in the positional-cube notation of
// ESPRESSO-MV.
//
// A logic function over multiple-valued variables X1..Xn (a binary variable
// is the special case of a 2-valued variable) is represented by a cover: a
// set of cubes. Each cube is a bit vector with one bit ("part") per value of
// each variable. Bit (v, p) set means the cube admits value p for variable
// v. A cube denotes the set of minterms whose value of every variable is
// admitted. A cube with an empty field for some variable denotes the empty
// set.
//
// Multi-output functions are represented, as in ESPRESSO, by treating the
// output part as one more multiple-valued variable whose values index the
// individual outputs: the cover then represents the characteristic function
// of the set of pairs (input-minterm, output-index) where the output is 1.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Structure describes the variable layout shared by all cubes of a cover:
// how many variables there are and how many parts (values) each has.
// A Structure is immutable after creation.
//
// Alongside the layout it precomputes, per variable, a full-width word
// mask and the word span the variable's field occupies, so the semantic
// per-field operations (emptiness, fullness, counting, cofactor) run
// word-parallel instead of bit by bit.
//
// For the emptiness tests (IsEmpty, Intersects) it also keeps, per cube
// word, one mask bmask holding the low part of every binary field that
// lies whole in that word, so all those fields are tested with one word
// operation (ESPRESSO-MV's cdist0). The fields it cannot cover — more
// than two parts, one part, or straddling a word boundary — are listed in
// other and tested one by one.
type Structure struct {
	sizes   []int // parts per variable
	offsets []int // first bit index of each variable
	nbits   int   // total parts
	nwords  int   // words per cube

	full     Cube   // the universe cube
	vmask    []Cube // per-variable field mask, nwords wide
	vlo, vhi []int  // first/last word index of each variable's field
	bmask    Cube   // per word: low part of each whole-in-word binary field
	other    []int  // variables bmask does not cover, in variable order

	pool *sync.Pool // shared Arena pool of this layout (see arena.go)
	memo *tautMemo  // shared tautology memo of this layout (see memo.go)
}

// NewStructure returns a Structure for variables with the given part counts.
// Every count must be at least 1 (a 1-valued variable is degenerate but
// legal; binary variables have 2 parts).
func NewStructure(sizes ...int) *Structure {
	s := &Structure{sizes: append([]int(nil), sizes...)}
	s.offsets = make([]int, len(sizes))
	for i, n := range sizes {
		if n < 1 {
			panic(fmt.Sprintf("cube: variable %d has invalid part count %d", i, n))
		}
		s.offsets[i] = s.nbits
		s.nbits += n
	}
	s.nwords = (s.nbits + 63) / 64
	if s.nwords == 0 {
		s.nwords = 1
	}
	s.full = make(Cube, s.nwords)
	s.vmask = make([]Cube, len(sizes))
	s.vlo = make([]int, len(sizes))
	s.vhi = make([]int, len(sizes))
	for v, n := range sizes {
		m := make(Cube, s.nwords)
		for p := 0; p < n; p++ {
			i := s.offsets[v] + p
			m[i>>6] |= 1 << uint(i&63)
		}
		s.vmask[v] = m
		s.vlo[v] = s.offsets[v] >> 6
		s.vhi[v] = (s.offsets[v] + n - 1) >> 6
	}
	s.bmask = make(Cube, s.nwords)
	for v, n := range sizes {
		if n == 2 && s.vlo[v] == s.vhi[v] {
			s.bmask.setBit(s.offsets[v])
		} else {
			s.other = append(s.other, v)
		}
	}
	for i := 0; i < s.nbits; i++ {
		s.full.setBit(i)
	}
	// Structures with the same layout share one arena pool, so scratch
	// buffers survive across calls (and across equal-layout Structure
	// values, as the per-candidate encoders create).
	key := layoutKey(s.sizes)
	p, _ := arenaPools.LoadOrStore(key, &sync.Pool{})
	s.pool = p.(*sync.Pool)
	s.memo = memoForLayout(key)
	return s
}

// layoutKey serializes a sizes vector for the arena-pool registry.
func layoutKey(sizes []int) string {
	var b strings.Builder
	for _, n := range sizes {
		fmt.Fprintf(&b, "%d.", n)
	}
	return b.String()
}

// arenaPools maps a layout key to the sync.Pool of Arenas for that layout.
var arenaPools sync.Map

// NumVars returns the number of variables.
func (s *Structure) NumVars() int { return len(s.sizes) }

// Size returns the number of parts of variable v.
func (s *Structure) Size(v int) int { return s.sizes[v] }

// Offset returns the index of the first part of variable v.
func (s *Structure) Offset(v int) int { return s.offsets[v] }

// Bits returns the total number of parts over all variables.
func (s *Structure) Bits() int { return s.nbits }

// Words returns the number of 64-bit words a cube occupies.
func (s *Structure) Words() int { return s.nwords }

// Equal reports whether two structures describe the same layout.
func (s *Structure) Equal(t *Structure) bool {
	if s == t {
		return true
	}
	if t == nil || len(s.sizes) != len(t.sizes) {
		return false
	}
	for i := range s.sizes {
		if s.sizes[i] != t.sizes[i] {
			return false
		}
	}
	return true
}

// Cube is a positional-notation cube laid out per a Structure. Cubes are
// plain word slices; all semantic operations take the owning Structure.
type Cube []uint64

// NewCube returns an all-zero (empty) cube for structure s.
func (s *Structure) NewCube() Cube { return make(Cube, s.nwords) }

// FullCube returns the universe cube: every part of every variable set.
func (s *Structure) FullCube() Cube {
	c := make(Cube, s.nwords)
	copy(c, s.full)
	return c
}

func (c Cube) setBit(i int)       { c[i>>6] |= 1 << uint(i&63) }
func (c Cube) clearBit(i int)     { c[i>>6] &^= 1 << uint(i&63) }
func (c Cube) testBit(i int) bool { return c[i>>6]&(1<<uint(i&63)) != 0 }

// Set sets part p of variable v in the cube.
func (s *Structure) Set(c Cube, v, p int) { c.setBit(s.offsets[v] + p) }

// Clear clears part p of variable v in the cube.
func (s *Structure) Clear(c Cube, v, p int) { c.clearBit(s.offsets[v] + p) }

// Test reports whether part p of variable v is set.
func (s *Structure) Test(c Cube, v, p int) bool { return c.testBit(s.offsets[v] + p) }

// SetAll sets every part of variable v.
func (s *Structure) SetAll(c Cube, v int) {
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		c[w] |= m[w]
	}
}

// ClearAll clears every part of variable v.
func (s *Structure) ClearAll(c Cube, v int) {
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		c[w] &^= m[w]
	}
}

// Copy returns an independent copy of c.
func (c Cube) Copy() Cube { return append(Cube(nil), c...) }

// Equal reports whether two cubes are bit-identical.
func (c Cube) Equal(d Cube) bool {
	if len(c) != len(d) {
		return false
	}
	for i := range c {
		if c[i] != d[i] {
			return false
		}
	}
	return true
}

// Key returns a string usable as a map key identifying the cube's bits.
func (c Cube) Key() string {
	var b strings.Builder
	for _, w := range c {
		fmt.Fprintf(&b, "%016x", w)
	}
	return b.String()
}

// VarCount returns the number of set parts of variable v in c.
func (s *Structure) VarCount(c Cube, v int) int {
	n := 0
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		n += bits.OnesCount64(c[w] & m[w])
	}
	return n
}

// VarFull reports whether every part of variable v is set in c.
func (s *Structure) VarFull(c Cube, v int) bool {
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		if c[w]&m[w] != m[w] {
			return false
		}
	}
	return true
}

// VarEmpty reports whether no part of variable v is set in c.
func (s *Structure) VarEmpty(c Cube, v int) bool {
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		if c[w]&m[w] != 0 {
			return false
		}
	}
	return true
}

// IsEmpty reports whether c denotes the empty set: some variable field has
// no parts set.
func (s *Structure) IsEmpty(c Cube) bool {
	for w, m := range s.bmask {
		// Bit i of x|x>>1 ORs the two parts of the binary field at i.
		if x := c[w]; (x|x>>1)&m != m {
			return true
		}
	}
	for _, v := range s.other {
		if s.VarEmpty(c, v) {
			return true
		}
	}
	return false
}

// IsFull reports whether c is the universe cube.
func (s *Structure) IsFull(c Cube) bool {
	for w, f := range s.full {
		if c[w]&f != f {
			return false
		}
	}
	return true
}

// And stores the bitwise intersection of a and b into dst and returns dst.
// dst may alias a or b. The result denotes set intersection; use IsEmpty to
// test emptiness.
func And(dst, a, b Cube) Cube {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	return dst
}

// Or stores the bitwise union of a and b into dst and returns dst. The
// result is the supercube of cubes a and b when a and b are nonempty.
func Or(dst, a, b Cube) Cube {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
	return dst
}

// Contains reports whether cube a contains cube b (as sets: every part set
// in b is set in a). An empty b is contained in everything.
func Contains(a, b Cube) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// varDisjoint reports whether a and b have an empty intersection on
// variable v's field.
func (s *Structure) varDisjoint(a, b Cube, v int) bool {
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		if a[w]&b[w]&m[w] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether cubes a and b have a nonempty intersection
// under structure s. It is IsEmpty of a∧b without building the cube.
func (s *Structure) Intersects(a, b Cube) bool {
	for w, m := range s.bmask {
		if x := a[w] & b[w]; (x|x>>1)&m != m {
			return false
		}
	}
	for _, v := range s.other {
		if s.varDisjoint(a, b, v) {
			return false
		}
	}
	return true
}

// Distance returns the number of variables in which a and b have an empty
// intersection. Distance 0 means the cubes intersect; distance 1 means
// consensus exists.
func (s *Structure) Distance(a, b Cube) int {
	d := 0
	for v := range s.sizes {
		if s.varDisjoint(a, b, v) {
			d++
		}
	}
	return d
}

// Consensus returns the consensus of cubes a and b, or nil if the distance
// between them is not exactly 1. The consensus is the largest cube contained
// in a∪b that spans both.
func (s *Structure) Consensus(a, b Cube) Cube {
	conflict := -1
	for v := range s.sizes {
		if s.varDisjoint(a, b, v) {
			if conflict >= 0 {
				return nil
			}
			conflict = v
		}
	}
	if conflict < 0 {
		return nil
	}
	r := s.NewCube()
	And(r, a, b)
	m := s.vmask[conflict]
	for w := s.vlo[conflict]; w <= s.vhi[conflict]; w++ {
		r[w] = (r[w] &^ m[w]) | ((a[w] | b[w]) & m[w])
	}
	return r
}

// ConsensusOn returns the consensus of a and b with respect to variable v:
// the intersection of the two cubes on every other variable and the union
// of their fields on v, or nil when that cube is empty. For cubes at
// distance one this is the classic consensus on the conflict variable; for
// already-intersecting cubes over a multiple-valued variable it can yield
// a strictly larger implicant of a∪b, which the distance-based Consensus
// never generates. A complete prime generator must take consensus with
// respect to every variable.
func (s *Structure) ConsensusOn(a, b Cube, v int) Cube {
	for u := range s.sizes {
		if u != v && s.varDisjoint(a, b, u) {
			return nil
		}
	}
	r := s.NewCube()
	And(r, a, b)
	m := s.vmask[v]
	for w := s.vlo[v]; w <= s.vhi[v]; w++ {
		r[w] = (r[w] &^ m[w]) | ((a[w] | b[w]) & m[w])
	}
	if s.VarEmpty(r, v) {
		return nil
	}
	return r
}

// Cofactor returns the cofactor of cube q with respect to cube c, or nil if
// q and c do not intersect. The cofactor has every variable field equal to
// q_v ∪ ¬c_v (within the field).
func (s *Structure) Cofactor(q, c Cube) Cube {
	if !s.Intersects(q, c) {
		return nil
	}
	r := q.Copy()
	s.cofactorInto(r, q, c)
	return r
}

// cofactorInto stores the cofactor of q with respect to c into r (callers
// must have established that q and c intersect). r may alias q.
func (s *Structure) cofactorInto(r, q, c Cube) {
	for w, f := range s.full {
		r[w] = q[w] | (f &^ c[w])
	}
}

// PopCount returns the total number of set parts in c.
func (c Cube) PopCount() int {
	n := 0
	for _, w := range c {
		n += bits.OnesCount64(w)
	}
	return n
}

// Minterms returns the number of minterms cube c spans: the product of the
// per-variable part counts. Returns 0 for an empty cube.
func (s *Structure) Minterms(c Cube) int {
	n := 1
	for v := range s.sizes {
		k := s.VarCount(c, v)
		if k == 0 {
			return 0
		}
		n *= k
	}
	return n
}

// VarParts returns the set part indexes of variable v in c.
func (s *Structure) VarParts(c Cube, v int) []int {
	var parts []int
	off, sz := s.offsets[v], s.sizes[v]
	for p := 0; p < sz; p++ {
		if c.testBit(off + p) {
			parts = append(parts, p)
		}
	}
	return parts
}

// String renders c per structure s: one character per part, variables
// separated by spaces, '1' for set and '0' for cleared parts.
func (s *Structure) String(c Cube) string {
	var b strings.Builder
	for v := range s.sizes {
		if v > 0 {
			b.WriteByte(' ')
		}
		off, sz := s.offsets[v], s.sizes[v]
		for p := 0; p < sz; p++ {
			if c.testBit(off + p) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// BinaryString renders a cube over binary variables using the PLA alphabet:
// '0', '1', '-' per binary variable, '?' for an empty field. Variables with
// more than two parts are rendered positionally in braces.
func (s *Structure) BinaryString(c Cube) string {
	var b strings.Builder
	for v := range s.sizes {
		off, sz := s.offsets[v], s.sizes[v]
		if sz == 2 {
			zero, one := c.testBit(off), c.testBit(off+1)
			switch {
			case zero && one:
				b.WriteByte('-')
			case zero:
				b.WriteByte('0')
			case one:
				b.WriteByte('1')
			default:
				b.WriteByte('?')
			}
			continue
		}
		b.WriteByte('{')
		for p := 0; p < sz; p++ {
			if c.testBit(off + p) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('}')
	}
	return b.String()
}
