// Package encode implements NOVA's encoding algorithms: the exact face
// hypercube embedding iexact_code (Section III), the bounded-backtracking
// semiexact_code and the projection coding project_code combined in
// ihybrid_code (Section IV), the fast igreedy_code (Section V), and the
// input/output constraint satisfaction algorithms iohybrid_code,
// iovariant_code and out_encoder built on symbolic minimization
// (Section VI).
package encode

import (
	"context"
	"errors"
	"math/bits"
	"slices"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/face"
	"nova/internal/obs"
)

// ErrBudget is returned when a search exceeds its work bound rather than
// proving infeasibility.
var ErrBudget = errors.New("encode: work budget exhausted")

// ctxCheckInterval is how many work ticks pass between context polls in
// the backtracking inner loop: frequent enough that cancellation lands
// within microseconds, rare enough that the poll cost is invisible next
// to the consistency checks themselves.
const ctxCheckInterval = 64

// OCEdge is an output covering constraint: the code of U must cover the
// code of V bitwise, and differ from it (edge (u,v) of the symbolic
// minimization graph G).
type OCEdge struct{ U, V int }

// other returns the end of e that is not state st (st for a self-edge).
func (e OCEdge) other(st int) int {
	if e.U == st {
		return e.V
	}
	return e.U
}

// wordDim is the largest cube dimension whose vertex sets fit one 64-bit
// word (2^6 = 64 vertices). Searchers at k <= wordDim keep vertex bitmaps
// of the assigned faces and run the forward check as word arithmetic.
const wordDim = 6

// coordOnes[i] is the set of vertices of the 6-cube whose coordinate i
// is 1, as a bitmap indexed by vertex.
var coordOnes = [wordDim]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// below[c] and above[c] are the vertices of the 6-cube that code c
// covers bitwise and those that cover c, c itself excluded: an output
// covering edge u > v leaves v the codes below u's, and u those above
// v's.
var below, above = coverMasks()

func coverMasks() (below, above [1 << wordDim]uint64) {
	for c := range below {
		b, a := ^uint64(0), ^uint64(0)
		for i, ones := range coordOnes {
			if c>>uint(i)&1 != 0 {
				a &= ones
			} else {
				b &^= ones
			}
		}
		below[c], above[c] = b&^(1<<uint(c)), a&^(1<<uint(c))
	}
	return below, above
}

// faceTable[k][l] lists the level-l faces of the k-cube (k <= wordDim)
// in face.Gen's genface order, built once.
var faceTable = func() (t [wordDim + 1][][]face.Face) {
	for k := range t {
		t[k] = make([][]face.Face, k+1)
		for l := range t[k] {
			g := face.NewGen(k, l)
			for f, ok := g.Next(); ok; f, ok = g.Next() {
				t[k][l] = append(t[k][l], f)
			}
		}
	}
	return t
}()

// genFaces calls emit on the level-l faces of the k-cube in genface
// order, from faceTable when k <= wordDim, until emit returns false. It
// reports whether emit accepted every face.
func genFaces(k, l int, emit func(face.Face) bool) bool {
	if k <= wordDim {
		if l > k {
			return true
		}
		for _, f := range faceTable[k][l] {
			if !emit(f) {
				return false
			}
		}
		return true
	}
	g := face.NewGen(k, l)
	for f, ok := g.Next(); ok; f, ok = g.Next() {
		if !emit(f) {
			return false
		}
	}
	return true
}

// deposit spreads the low bits of v over the set bits of mask, lowest
// first: bit j of v lands on mask's j-th lowest coordinate.
func deposit(v, mask uint64) uint64 {
	var r uint64
	for ; v != 0; v >>= 1 {
		low := mask & -mask
		if v&1 != 0 {
			r |= low
		}
		mask &^= low
	}
	return r
}

// vertexMask returns the vertices of f (f.K <= wordDim) as a bitmap: bit v
// is set iff vertex v lies in f.
func vertexMask(f face.Face) uint64 {
	m := ^uint64(0) >> (64 - (1 << uint(f.K)))
	for bound := lowMask(f.K) &^ f.X; bound != 0; bound &= bound - 1 {
		i := bits.TrailingZeros64(bound)
		if f.Val&(1<<uint(i)) != 0 {
			m &= coordOnes[i]
		} else {
			m &^= coordOnes[i]
		}
	}
	return m
}

// orbitKey is the canonical signature of a face's orbit under the
// stabilizer of {full cube, f0} in the k-cube's automorphism group,
// where f0 is the first placed face in canonical position (Val=0,
// X=lowMask(l)). The stabilizer is exactly the pairs (π, t) of a
// coordinate permutation π preserving f0's free-coordinate set X0
// setwise and a translation t ⊆ X0; two faces are related by such a
// map iff they agree on (free coordinates inside X0, total free
// coordinates, fixed-1 coordinates outside X0) — the permutation moves
// coordinates within/outside X0 independently, and the translation
// clears any fixed-value pattern inside X0.
type orbitKey struct{ a, b, c uint8 }

func orbitKeyOf(f face.Face, x0 uint64) orbitKey {
	return orbitKey{
		uint8(bits.OnesCount64(f.X & x0)),
		uint8(bits.OnesCount64(f.X)),
		uint8(bits.OnesCount64(f.Val &^ f.X &^ x0)),
	}
}

// orbitKey2 is the third-placement analogue of orbitKey: the signature
// of a candidate face's orbit under the stabilizer of {full cube, f0,
// f1}, where f0 is canonical and f1 is the second placed face. The
// coordinates split into six classes by (inside/outside X0) × (free /
// fixed-0 / fixed-1 in f1); a permutation moving coordinates only
// within a class, together with a translation supported on class 0
// (free in both faces), fixes both placed faces. Per class the key
// records how many of the candidate's coordinates are free and how many
// are fixed at 1 — except class 0, where translations reach every value
// pattern and only the free count matters. Faces agreeing on the key
// are related by such a map, so their subtrees are isomorphic.
type orbitKey2 [6]uint16

func orbit2KeyOf(f face.Face, cls *[6]uint64) orbitKey2 {
	var key orbitKey2
	b1 := f.Val &^ f.X
	for i, m := range cls {
		nx := uint16(bits.OnesCount64(f.X & m))
		if i == 0 {
			key[i] = nx << 8
			continue
		}
		key[i] = nx<<8 | uint16(bits.OnesCount64(b1&m))
	}
	return key
}

// lowMask returns the mask of the l lowest coordinates.
func lowMask(l int) uint64 { return (uint64(1) << uint(l)) - 1 }

// searcher holds the state of one pos_equiv run: the input graph, the cube
// dimension, the chosen levels of the primary constraints, the incremental
// assignment with its undo trail, and the work accounting.
type searcher struct {
	g *constraint.Graph
	k int

	// allLevels lets cat-3 constraints range over every feasible level
	// (true for iexact); false restricts them to the minimum level
	// (semiexact).
	allLevels bool

	// noPrune disables the pruning added on top of the seed searcher
	// (second-placement orbit breaking; the run-level memo and the
	// infeasible-constraint skip are gated by the same flag in their
	// callers). The first-placement break predates the flag and stays on.
	noPrune bool

	maxWork int // 0 = unbounded
	work    int
	budget  bool // set when the work bound fired
	solved  bool // solve's verdict, kept with the searcher (runVector, semiexactRun)
	refuted bool // semiexactRun rejected the run without a search

	// Telemetry accumulated in plain ints (the searcher is single-owner);
	// flushMetrics pushes the totals into a run's obs.Metrics, if any.
	backtracks int // solution-path undos in solve
	checksOK   int // checkFace probes that passed (fitsWord counts as if probing)
	checksFail int // checkFace probes that failed (likewise)
	symPruned  int // candidate faces skipped by the orbit break

	// Memo bookkeeping. A replayed searcher (memoHit) carries no graph:
	// only flushMetrics and extract may be called on it. memoEnc holds
	// the memoized encoding; memoHits/memoMisses feed the counters.
	memoHit    bool
	memoHits   int
	memoMisses int
	memoEnc    encoding.Encoding

	// ctx, when non-nil, is polled every ctxCheckInterval work ticks;
	// cancellation aborts the search like an exhausted budget, with
	// canceled set so callers can tell the two apart.
	ctx      context.Context
	canceled bool

	// The assignment, indexed by Node.Index: aface[i] is node i's face,
	// valid iff ahave[i]. stack holds the assigned nodes in assignment
	// order, universe first; the search undoes in LIFO order, so a
	// placement's undo trail is just the stack height before it. The
	// assigned node indices are also kept split by kind: codes holds the
	// singletons (their faces are vertices, the state codes) and wides
	// every other node, universe first.
	aface []face.Face
	ahave []bool
	stack []*constraint.Node
	codes []int
	wides []int

	// word is set when k <= wordDim: vbits[i] is then the vertex bitmap
	// of assigned non-singleton i's face, usedCodes the bitmap of the
	// assigned codes and full that of the whole cube. allow[st] holds
	// the vertices state st may still take: inside the face of every
	// assigned wider node whose set holds st and outside every other's,
	// and, for every output covering edge to an assigned state, below
	// or above that state's code as the edge requires. assign of a
	// wider node pushes all N masks on allowTrail before narrowing them,
	// assign of a state pushes the mask of each edge's other end, and
	// undo pops them back.
	word       bool
	vbits      []uint64
	usedCodes  uint64
	full       uint64
	allow      []uint64
	allowTrail []uint64

	// info holds the per-node tables, filled once by newSearcher (setLevel
	// overrides a primary's level); kids holds each node's children as a
	// bitset over node indices, kidWords words per node.
	info     []nodeInfo
	kids     []uint64
	kidWords int

	cat2       []*constraint.Node // non-singleton category-2 nodes, in node order
	oc         []OCEdge
	ocAt       [][]OCEdge         // per state: the OC edges with an end at it
	singletons []*constraint.Node // per symbol

	// orbitBuf / orbitBuf2 are the seen-orbit sets of the second- and
	// third-placement breaks. Only one solve frame can ever observe a
	// given assignment count at a time (deeper frames see more
	// assignments, and each frame clears its buffer on entry), so one
	// buffer per depth suffices.
	orbitBuf  map[orbitKey]bool
	orbitBuf2 map[orbitKey2]bool
}

// nodeInfo is what the search reads of one node on every probe.
type nodeInfo struct {
	card  int32 // Set.Card()
	sym   int32 // a singleton's state; -1 for every other node
	cat   uint8 // Node.Cat()
	minLv uint8 // minLevel: ceil(log2(card))
	lv    uint8 // category 1: the level of its face (minLv unless setLevel)
}

func newSearcher(g *constraint.Graph, k int) *searcher {
	nn := len(g.Nodes)
	kw := (nn + 63) / 64
	s := &searcher{
		g:          g,
		k:          k,
		word:       k <= wordDim,
		aface:      make([]face.Face, nn),
		ahave:      make([]bool, nn),
		stack:      make([]*constraint.Node, 0, nn),
		codes:      make([]int, 0, g.N),
		wides:      make([]int, 0, nn-g.N+1),
		info:       make([]nodeInfo, nn),
		kids:       make([]uint64, nn*kw),
		kidWords:   kw,
		singletons: make([]*constraint.Node, g.N),
	}
	if s.word {
		s.vbits = make([]uint64, nn)
		s.full = ^uint64(0) >> (64 - (1 << uint(k)))
		s.allow = make([]uint64, g.N)
		for st := range s.allow {
			s.allow[st] = s.full
		}
		s.allowTrail = make([]uint64, 0, (nn-g.N+1)*g.N)
	}
	for i, nd := range g.Nodes {
		ml := minLevel(nd)
		in := nodeInfo{card: int32(nd.Set.Card()), sym: -1, cat: uint8(nd.Cat()), minLv: uint8(ml), lv: uint8(ml)}
		switch {
		case in.card == 1:
			st := nd.Set.Members()[0]
			in.sym = int32(st)
			s.singletons[st] = nd
		case in.cat == constraint.Cat2:
			s.cat2 = append(s.cat2, nd)
		}
		s.info[i] = in
		row := s.kids[i*kw : (i+1)*kw]
		for _, c := range nd.Children {
			row[c.Index>>6] |= 1 << uint(c.Index&63)
		}
	}
	// The universe is pre-assigned the full face.
	s.assign(g.Universe, face.Full(k))
	return s
}

// setLevel fixes the level of category-1 node nd's face: one entry of
// iexact's primary level vector. Without it a primary takes its minimum
// level.
func (s *searcher) setLevel(nd *constraint.Node, l int) { s.info[nd.Index].lv = uint8(l) }

// setOC installs the output covering edges, before any state is
// placed, and indexes them by state: placing a state narrows the masks
// of its edges' other ends (k <= wordDim), and a probe of a code in a
// wider cube walks only the edges at its own state. A state covering
// itself can take no code.
func (s *searcher) setOC(oc []OCEdge) {
	s.oc, s.ocAt = oc, nil
	if len(oc) == 0 {
		return
	}
	s.ocAt = make([][]OCEdge, s.g.N)
	for _, e := range oc {
		s.ocAt[e.U] = append(s.ocAt[e.U], e)
		if e.V != e.U {
			s.ocAt[e.V] = append(s.ocAt[e.V], e)
		} else if s.word {
			s.allow[e.U] = 0
		}
	}
	if s.word {
		s.allowTrail = slices.Grow(s.allowTrail, 2*len(oc))
	}
}

// minLevel returns ceil(log2(card(nd))), the minimum feasible face level.
func minLevel(nd *constraint.Node) int {
	c := nd.Set.Card()
	l, p := 0, 1
	for p < c {
		p <<= 1
		l++
	}
	return l
}

// assign records nd -> f without verification.
func (s *searcher) assign(nd *constraint.Node, f face.Face) {
	i := nd.Index
	s.aface[i] = f
	s.ahave[i] = true
	s.stack = append(s.stack, nd)
	if s.info[i].card == 1 {
		s.codes = append(s.codes, i)
		if s.word {
			s.usedCodes |= 1 << f.Val
			if s.ocAt != nil {
				st := int(s.info[i].sym)
				for _, e := range s.ocAt[st] {
					o := e.other(st)
					s.allowTrail = append(s.allowTrail, s.allow[o])
					if e.U == st {
						s.allow[o] &= below[f.Val]
					} else {
						s.allow[o] &= above[f.Val]
					}
				}
			}
		}
		return
	}
	s.wides = append(s.wides, i)
	if !s.word {
		return
	}
	vb := vertexMask(f)
	s.vbits[i] = vb
	s.allowTrail = append(s.allowTrail, s.allow...)
	rel := s.g.Rel[i*len(s.g.Nodes):]
	for st, sg := range s.singletons {
		if rel[sg.Index]&constraint.RelIntersects != 0 {
			s.allow[st] &= vb
		} else {
			s.allow[st] &^= vb
		}
	}
}

// undo unassigns the nodes above stack height mark, last assigned first.
func (s *searcher) undo(mark int) {
	for len(s.stack) > mark {
		i := s.stack[len(s.stack)-1].Index
		s.stack = s.stack[:len(s.stack)-1]
		s.ahave[i] = false
		if s.info[i].card != 1 {
			s.wides = s.wides[:len(s.wides)-1]
			if s.word {
				top := len(s.allowTrail) - len(s.allow)
				copy(s.allow, s.allowTrail[top:])
				s.allowTrail = s.allowTrail[:top]
			}
			continue
		}
		s.codes = s.codes[:len(s.codes)-1]
		if s.word {
			s.usedCodes &^= 1 << s.aface[i].Val
			if s.ocAt != nil {
				st := int(s.info[i].sym)
				at := s.ocAt[st]
				for j := len(at) - 1; j >= 0; j-- {
					top := len(s.allowTrail) - 1
					s.allow[at[j].other(st)] = s.allowTrail[top]
					s.allowTrail = s.allowTrail[:top]
				}
			}
		}
	}
}

// faceOf returns nd's assigned face, if any (tests and reporting).
func (s *searcher) faceOf(nd *constraint.Node) (face.Face, bool) {
	if nd == nil || !s.ahave[nd.Index] {
		return face.Face{}, false
	}
	return s.aface[nd.Index], true
}

// assignedCount returns the number of assigned nodes, universe included.
func (s *searcher) assignedCount() int { return len(s.stack) }

// verify implements the incremental correctness checks of Section 3.4.3
// for a face f proposed for nd, against every assigned node:
//
//	input poset:  the single father's face must include f (guaranteed by
//	              construction for categories 1 and 3: candidates are
//	              generated inside the father's face); category-2 faces are
//	              the exact intersection of their fathers' faces (propagate).
//	face poset:   (1) injectivity; (2) face inclusion implies proper set
//	              inclusion, both directions; (3) faces that intersect must
//	              have intersecting constraints.
//
// plus the cardinality condition #(ic) <= #(f(ic)) and the output covering
// relations for iohybrid.
func (s *searcher) verify(nd *constraint.Node, f face.Face) bool {
	s.work++
	if s.maxWork > 0 && s.work > s.maxWork {
		s.budget = true
		return false
	}
	if s.ctx != nil && s.work%ctxCheckInterval == 0 && s.ctx.Err() != nil {
		s.canceled = true
		return false
	}
	return s.checkFace(nd, f)
}

// stopped reports whether the search must unwind now: the work budget
// fired or the context was canceled.
func (s *searcher) stopped() bool { return s.budget || s.canceled }

// checkFace is verify's condition check without the work accounting (the
// forward check probes many faces and must not burn budget or set the
// budget flag). It tallies pass/fail so runs can report the
// face-constraint satisfaction ratio.
func (s *searcher) checkFace(nd *constraint.Node, f face.Face) bool {
	ok := s.checkFaceConds(nd, f)
	if ok {
		s.checksOK++
	} else {
		s.checksFail++
	}
	return ok
}

// checkFaceConds decides the conditions for nd -> f. The defining
// condition of FACE HYPERCUBE EMBEDDING relates constraint faces to state
// codes: f(ic) ∩ f(s) ≠ Φ ⇔ s ∈ ic. Between two non-singleton faces no
// relation is required — the auxiliary closure faces may overlap as long
// as the eventually placed codes respect every original constraint, which
// the singleton checks enforce. So a singleton probe walks the assigned
// non-singleton faces and a non-singleton probe the assigned codes.
//
// Injectivity (two different constraints sharing a face always break the
// final encoding — some differing member's code would sit in a face whose
// constraint excludes it — so rejecting early is sound) is one compare
// against the other list: only singletons hold level-0 faces (they are
// probed at vertices, and every other node has at least two members so
// fails the cardinality check there), hence a vertex can only collide
// with an assigned code and a wider face with an assigned wider face, the
// universe's full face included. Distinct singletons never intersect, so
// injectivity is all their pairs require.
//
// With one-word bitmaps the singleton probe is two bit tests: the vertex
// is no assigned code (usedCodes), and it lies in allow, which assign
// keeps equal to the walk over the wider faces and to ocOK.
func (s *searcher) checkFaceConds(nd *constraint.Node, f face.Face) bool {
	in := &s.info[nd.Index]
	if in.card == 1 && s.word {
		bit := uint64(1) << f.Val
		return s.usedCodes&bit == 0 && s.allow[in.sym]&bit != 0
	}
	if f.Cardinality() < int(in.card) {
		return false
	}
	rel := s.g.Rel[nd.Index*len(s.g.Nodes):]
	if in.card == 1 {
		for _, j := range s.codes {
			if s.aface[j].Val == f.Val {
				return false
			}
		}
		// A singleton lies inside a constraint's face iff the state is a
		// member (for ancestors the father-chain generation guarantees
		// it).
		for _, j := range s.wides {
			if f.Intersects(s.aface[j]) != (rel[j]&constraint.RelIntersects != 0) {
				return false
			}
		}
		// Output covering constraints between encoded singletons.
		return len(s.oc) == 0 || s.ocOK(nd, f)
	}
	for _, j := range s.wides {
		if g := s.aface[j]; g.X == f.X && (g.Val^f.Val)&^f.X == 0 {
			return false
		}
	}
	for _, j := range s.codes {
		if f.Intersects(s.aface[j]) != (rel[j]&constraint.RelIntersects != 0) {
			return false
		}
	}
	return true
}

// ocOK checks the output covering edges at singleton nd's state assuming
// nd gets vertex f (k > wordDim; smaller cubes keep the edges in the
// allow masks): where the edge's other end is placed, the code of U
// must cover the code of V bitwise and differ from it. Edges between two
// other placed states need no check: the later of the two was placed
// through this check, and undo only removes codes.
func (s *searcher) ocOK(nd *constraint.Node, f face.Face) bool {
	st := int(s.info[nd.Index].sym)
	codeOf := func(sym int) (uint64, bool) {
		if sym == st {
			return f.Val, true
		}
		if sg := s.singletons[sym]; s.ahave[sg.Index] {
			return s.aface[sg.Index].Val, true
		}
		return 0, false
	}
	for _, e := range s.ocAt[st] {
		cu, okU := codeOf(e.U)
		cv, okV := codeOf(e.V)
		if !okU || !okV {
			continue
		}
		if cv&^cu != 0 || cu == cv {
			return false
		}
	}
	return true
}

// place assigns f to nd after verification, then propagates forced
// category-2 assignments to fixpoint and runs the forward check. It
// returns the undo mark (the stack height before the placement) and
// true, or false when any step fails (the partial work is rolled back).
func (s *searcher) place(nd *constraint.Node, f face.Face) (int, bool) {
	mark := len(s.stack)
	if !s.verify(nd, f) {
		return mark, false
	}
	s.assign(nd, f)
	if !s.propagate() || !s.forwardCheck() {
		s.undo(mark)
		return mark, false
	}
	return mark, true
}

// propagate makes the forced assignments: any unassigned non-singleton
// cat-2 node whose fathers are all assigned receives the intersection of
// its fathers' faces (D(ic) of assign_face, taken to fixpoint). Singletons
// are not forced: they are selected and enumerated as vertices inside
// their fathers' intersection, so the backtracking can revisit the
// choice. It reports false when a forced face is empty or fails verify.
func (s *searcher) propagate() bool {
	for {
		var next *constraint.Node
		for _, cand := range s.cat2 {
			if s.ahave[cand.Index] {
				continue
			}
			ready := true
			for _, fa := range cand.Fathers {
				if !s.ahave[fa.Index] {
					ready = false
					break
				}
			}
			if ready {
				next = cand
				break
			}
		}
		if next == nil {
			return true
		}
		fi := s.aface[next.Fathers[0].Index]
		for _, fa := range next.Fathers[1:] {
			var ok bool
			if fi, ok = fi.Intersect(s.aface[fa.Index]); !ok {
				return false
			}
		}
		if !s.verify(next, fi) {
			return false
		}
		s.assign(next, fi)
	}
}

// forwardCheckMaxLevel bounds the per-vertex forward check of cubes wider
// than wordDim: singletons whose fathers' intersection spans more than
// 2^forwardCheckMaxLevel vertices are skipped (plenty of room there, and
// enumerating the vertices would dominate the search).
const forwardCheckMaxLevel = 6

// forwardCheck reports whether every unassigned singleton whose fathers
// are all assigned still has at least one feasible vertex; otherwise this
// branch is dead and pruning now avoids deep thrashing. It also fails
// when the fathers assigned before a singleton's first unassigned father
// already meet in nothing.
func (s *searcher) forwardCheck() bool {
	for _, sg := range s.singletons {
		if sg == nil || s.ahave[sg.Index] {
			continue
		}
		if s.word {
			// Two faces meet iff their vertex bitmaps share a bit, so the
			// fathers' intersection is the AND of their bitmaps.
			m, ready := s.full, true
			for _, fa := range sg.Fathers {
				if !s.ahave[fa.Index] {
					ready = false
					break
				}
				if m &= s.vbits[fa.Index]; m == 0 {
					return false
				}
			}
			if ready && !s.fitsWord(sg, m) {
				return false
			}
			continue
		}
		fi, ready := face.Full(s.k), true
		for _, fa := range sg.Fathers {
			if !s.ahave[fa.Index] {
				ready = false
				break
			}
			var ok bool
			if fi, ok = fi.Intersect(s.aface[fa.Index]); !ok {
				// All fathers assigned so far meet in nothing: the
				// singleton has nowhere to go.
				return false
			}
		}
		if ready && fi.Level() <= forwardCheckMaxLevel && !s.fitsProbe(sg, fi) {
			return false
		}
	}
	return true
}

// fitsProbe reports whether singleton sg has a feasible vertex in fi,
// probing fi's vertices in Face.Vertices order with checkFace up to the
// first that passes.
func (s *searcher) fitsProbe(sg *constraint.Node, fi face.Face) bool {
	feasible := false
	fi.Vertices(func(v uint64) {
		if !feasible && s.checkFace(sg, face.Vertex(s.k, v)) {
			feasible = true
		}
	})
	return feasible
}

// fitsWord is fitsProbe on one-word vertex bitmaps (k <= wordDim), with
// the same verdict and tallies; all is the vertex bitmap of the face fi
// fitsProbe would walk. A vertex of fi passes checkFace iff it is no
// assigned code and lies in the state's allow mask (cardinality holds at
// level 0). Face.Vertices enumerates in ascending vertex order, so the
// probe loop would have failed on every vertex of fi below the first
// feasible one, then passed once — or failed on all of fi.
func (s *searcher) fitsWord(sg *constraint.Node, all uint64) bool {
	if cand := all &^ s.usedCodes & s.allow[s.info[sg.Index].sym]; cand != 0 {
		v := uint64(bits.TrailingZeros64(cand))
		s.checksFail += bits.OnesCount64(all & (1<<v - 1))
		s.checksOK++
		return true
	}
	s.checksFail += bits.OnesCount64(all)
	return false
}

// selectable reports whether nd can be chosen by next_to_code now:
// categories 1 and 3 with an assigned father, plus singletons of category
// 2 once every father is assigned (they are enumerated as vertices of the
// fathers' intersection rather than forced).
func (s *searcher) selectable(nd *constraint.Node) bool {
	if s.ahave[nd.Index] {
		return false
	}
	in := &s.info[nd.Index]
	switch in.cat {
	case constraint.Cat1:
		return true
	case constraint.Cat3:
		return s.ahave[nd.Fathers[0].Index]
	case constraint.Cat2:
		if in.card != 1 {
			return false
		}
		for _, fa := range nd.Fathers {
			if !s.ahave[fa.Index] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// levelRange returns the levels of nd's candidate faces as the range
// [lo, hi], empty when lo > hi; candidates tries them in ascending order.
// A singleton takes level 0 (states take vertices), a category-1 node
// its primary level, and a category-3 node, whose father must be
// assigned, its minimum level, or with allLevels every level from it to
// one below the father's face.
func (s *searcher) levelRange(nd *constraint.Node) (lo, hi int) {
	in := &s.info[nd.Index]
	switch {
	case in.card == 1:
		return 0, 0
	case in.cat == constraint.Cat1:
		return int(in.lv), int(in.lv)
	case in.cat == constraint.Cat3:
		lo, hi = int(in.minLv), s.aface[nd.Fathers[0].Index].Level()-1
		if !s.allLevels {
			hi = min(hi, lo)
		}
		return lo, hi
	}
	return 1, 0
}

// sharesChild reports whether nd has a child in the bitset kids.
func (s *searcher) sharesChild(nd *constraint.Node, kids []uint64) bool {
	row := s.kids[nd.Index*s.kidWords:]
	for w, m := range kids {
		if row[w]&m != 0 {
			return true
		}
	}
	return false
}

// nextToCode implements the priority branching scheme of Section 3.4.1,
// with lic the most recently selected node (nil at the start, in which
// case the selectable node of largest feasible level is taken, the first
// in graph order on ties). Otherwise, with cur the level of f(lic), the
// branches in priority order are: (1) a category-1 node that can take
// level cur and shares a child with lic; (2) a category-1 node that can
// take cur; (3) any node that can take cur and shares a child with lic;
// (4) any node that can take cur; (5) the category-1 node, then (6) any
// node, with the largest feasible level below cur; else the first
// selectable node. Within a branch the first node in graph order wins,
// so one pass over the nodes decides them all.
func (s *searcher) nextToCode(lic *constraint.Node) *constraint.Node {
	var first, widest *constraint.Node
	widestL := -1
	var same [3]*constraint.Node  // branches 2-4; branch 1 returns at once
	var below [2]*constraint.Node // branches 5-6
	belowL := [2]int{-1, -1}
	cur := -1
	var licKids []uint64
	if lic != nil {
		cur = s.aface[lic.Index].Level()
		licKids = s.kids[lic.Index*s.kidWords : (lic.Index+1)*s.kidWords]
	}
	for _, nd := range s.g.Nodes {
		if !s.selectable(nd) {
			continue
		}
		lo, hi := s.levelRange(nd)
		if lic == nil {
			top := hi
			if lo > hi {
				top = -1
			}
			if widest == nil || top > widestL {
				widest, widestL = nd, top
			}
			continue
		}
		if first == nil {
			first = nd
		}
		cat1 := s.info[nd.Index].cat == constraint.Cat1
		if lo <= cur && cur <= hi {
			if cat1 || same[1] == nil {
				shared := s.sharesChild(nd, licKids)
				if cat1 && shared {
					return nd
				}
				if shared && same[1] == nil {
					same[1] = nd
				}
			}
			if cat1 && same[0] == nil {
				same[0] = nd
			}
			if same[2] == nil {
				same[2] = nd
			}
		}
		if l := min(hi, cur-1); l >= lo {
			if cat1 && l > belowL[0] {
				below[0], belowL[0] = nd, l
			}
			if l > belowL[1] {
				below[1], belowL[1] = nd, l
			}
		}
	}
	if lic == nil {
		return widest
	}
	for _, nd := range same {
		if nd != nil {
			return nd
		}
	}
	for _, nd := range below {
		if nd != nil {
			return nd
		}
	}
	return first
}

// candidates enumerates the faces to try for nd, in the paper's genface
// order (x-patterns lexicographic, then values), level by level in
// levelRange's ascending order. Category-3 faces are the faces of the
// father's face, generated as subfaces of a cube of its dimension and
// deposited on its free coordinates; singletons are vertices of the
// intersection of their assigned fathers' faces, in ascending vertex
// order.
func (s *searcher) candidates(nd *constraint.Node, emit func(face.Face) bool) {
	if s.info[nd.Index].card == 1 {
		if s.word {
			m := s.vbits[nd.Fathers[0].Index]
			for _, fa := range nd.Fathers[1:] {
				if s.ahave[fa.Index] {
					m &= s.vbits[fa.Index]
				}
			}
			for ; m != 0; m &= m - 1 {
				if !emit(face.Vertex(s.k, uint64(bits.TrailingZeros64(m)))) {
					return
				}
			}
			return
		}
		// Intersection of all assigned fathers' faces (the universe face
		// for category 1).
		fi := s.aface[nd.Fathers[0].Index]
		ok := true
		for _, fa := range nd.Fathers[1:] {
			if s.ahave[fa.Index] {
				fi, ok = fi.Intersect(s.aface[fa.Index])
				if !ok {
					return
				}
			}
		}
		stop := false
		fi.Vertices(func(v uint64) {
			if stop {
				return
			}
			if !emit(face.Vertex(s.k, v)) {
				stop = true
			}
		})
		return
	}
	lo, hi := s.levelRange(nd)
	switch s.info[nd.Index].cat {
	case constraint.Cat1:
		for l := lo; l <= hi; l++ {
			if !genFaces(s.k, l, emit) {
				return
			}
		}
	case constraint.Cat3:
		ff := s.aface[nd.Fathers[0].Index]
		sub := func(f face.Face) bool {
			return emit(face.Face{Val: ff.Val | deposit(f.Val, ff.X), X: deposit(f.X, ff.X), K: s.k})
		}
		for l := lo; l <= hi; l++ {
			if !genFaces(ff.Level(), l, sub) {
				return
			}
		}
	}
}

// solve runs the backtracking search to completion. It returns true when
// every node of the input graph is assigned a face consistently.
//
// Symmetry breaking, first placement: the very first constraint placed
// (only the universe assigned) may take only the first verifying face of
// its level — every face of a given level is equivalent under the
// automorphisms of the k-cube (coordinate permutations and XOR
// translations), so any solution can be remapped to one using that face.
// XOR translations do not preserve bitwise output covering, so the break
// is disabled when OC edges are active.
//
// Symmetry breaking, second placement (disabled by noPrune): with the
// first placed face f0 in its canonical position, the automorphisms
// fixing {full cube, f0} still act on the second face's candidates;
// candidates sharing an orbitKey are interchangeable, so only the first
// of each orbit is explored. All verdicts (verify, place, subtree
// success) are invariant under the stabilizer, so skipping the rest of
// an orbit never loses a solution — though the *work spent* in
// isomorphic subtrees is not identical, so under a binding budget the
// pruned search may give up elsewhere than the unpruned one.
//
// Symmetry breaking, third placement (disabled by noPrune): the same
// argument one level deeper with the stabilizer of {full cube, f0, f1}
// (orbitKey2), where f1 is whatever face was placed second — chosen or
// forced, it only matters that the automorphisms fix it. The group is
// smaller, but the third placement still fans out widely enough for the
// orbits to collapse many isomorphic subtrees.
func (s *searcher) solve(lic *constraint.Node) bool {
	nd := s.nextToCode(lic)
	if nd == nil {
		return len(s.stack) == len(s.g.Nodes)
	}
	first := len(s.stack) == 1 && len(s.oc) == 0 // only the universe placed
	var orbitSeen map[orbitKey]bool
	var x0 uint64
	var orbit2Seen map[orbitKey2]bool
	var cls2 [6]uint64
	if !s.noPrune && len(s.oc) == 0 && len(s.stack) == 2 {
		// Second placement: the stack is {universe, f0's node}. The orbit
		// argument needs f0 canonical (guaranteed by genface order via
		// the first-placement break; checked defensively — forced
		// assignments or a non-first surviving candidate void it).
		f0 := s.aface[s.stack[1].Index]
		if f0.Val&^f0.X == 0 && f0.X == lowMask(f0.Level()) {
			x0 = f0.X
			if s.orbitBuf == nil {
				s.orbitBuf = make(map[orbitKey]bool, 64)
			}
			for k := range s.orbitBuf {
				delete(s.orbitBuf, k)
			}
			orbitSeen = s.orbitBuf
		}
	}
	if !s.noPrune && len(s.oc) == 0 && len(s.stack) == 3 {
		// Third placement: f0 must again be canonical; f1 is arbitrary.
		f0 := s.aface[s.stack[1].Index]
		if f0.Val&^f0.X == 0 && f0.X == lowMask(f0.Level()) {
			f1 := s.aface[s.stack[2].Index]
			full := lowMask(s.k)
			fx0, x1 := f0.X, f1.X
			v1 := f1.Val &^ f1.X
			cls2[0] = fx0 & x1
			cls2[1] = fx0 &^ x1 &^ v1
			cls2[2] = fx0 &^ x1 & v1
			cls2[3] = x1 &^ fx0
			cls2[4] = full &^ fx0 &^ x1 &^ v1
			cls2[5] = (full &^ fx0 &^ x1) & v1
			if s.orbitBuf2 == nil {
				s.orbitBuf2 = make(map[orbitKey2]bool, 64)
			}
			for k := range s.orbitBuf2 {
				delete(s.orbitBuf2, k)
			}
			orbit2Seen = s.orbitBuf2
		}
	}
	found := false
	s.candidates(nd, func(f face.Face) bool {
		if orbitSeen != nil {
			ok := orbitKeyOf(f, x0)
			if orbitSeen[ok] {
				s.symPruned++
				return true
			}
			orbitSeen[ok] = true
		}
		if orbit2Seen != nil {
			k2 := orbit2KeyOf(f, &cls2)
			if orbit2Seen[k2] {
				s.symPruned++
				return true
			}
			orbit2Seen[k2] = true
		}
		t, ok := s.place(nd, f)
		if !ok {
			return !s.stopped() // stop enumerating when the budget fired or the context was canceled
		}
		if s.solve(nd) {
			found = true
			return false
		}
		s.undo(t)
		s.backtracks++
		if first {
			return false // symmetry: other faces of this level are isomorphic
		}
		return !s.stopped()
	})
	return found
}

// flushMetrics adds the searcher's accumulated tallies to m (nil-safe).
// Call once per search run, after solve returns. Replayed (memo-hit)
// searchers flush the original run's tallies, so counters read "as if
// executed"; the memo.hit/miss counters record the cache behavior on
// top.
func (s *searcher) flushMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	m.SearchWork.Add(int64(s.work))
	m.SearchBacktracks.Add(int64(s.backtracks))
	m.SearchChecksOK.Add(int64(s.checksOK))
	m.SearchChecksFail.Add(int64(s.checksFail))
	if s.symPruned > 0 {
		m.Add("search.symmetry.pruned", int64(s.symPruned))
	}
	if s.refuted {
		m.Add("search.refuted", 1)
	}
	if s.memoHits > 0 {
		m.Add("search.memo.hit", int64(s.memoHits))
	}
	if s.memoMisses > 0 {
		m.Add("search.memo.miss", int64(s.memoMisses))
	}
}

// extract returns the encoding defined by the singleton faces: the code of
// symbol i is the Val vertex of f({i}).
func (s *searcher) extract() encoding.Encoding {
	if s.memoHit {
		return encoding.Encoding{Bits: s.memoEnc.Bits, Codes: append([]uint64(nil), s.memoEnc.Codes...)}
	}
	e := encoding.New(s.g.N, s.k)
	for i, sg := range s.singletons {
		e.Codes[i] = s.aface[sg.Index].Val
	}
	return e
}

// Faces returns a copy of the face assignment keyed by constraint vector,
// for reporting and tests.
func (s *searcher) Faces() map[string]face.Face {
	out := make(map[string]face.Face, len(s.stack))
	for _, nd := range s.stack {
		out[nd.Set.String()] = s.aface[nd.Index]
	}
	return out
}
