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

	// level of the face to use per cat-1 non-singleton node (the primary
	// level vector); nil selects the minimum feasible level everywhere.
	levels map[*constraint.Node]int

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
	refuted bool // semiexactRun rejected the run by Graph.Fits, without a search

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
	// of assigned non-singleton i's face, and usedCodes the bitmap of
	// the assigned codes.
	word      bool
	vbits     []uint64
	usedCodes uint64

	card       []int              // Set.Card() per node
	cat2       []*constraint.Node // non-singleton category-2 nodes, in node order
	oc         []OCEdge
	singletons []*constraint.Node // per symbol

	// Scratch buffers reused across next_to_code calls. Both are consumed
	// before the search recurses (nextToCode returns a single node, and
	// its level probes are read immediately), so plain reuse is safe.
	lvbuf    []int
	candsBuf []*constraint.Node

	// orbitBuf / orbitBuf2 are the seen-orbit sets of the second- and
	// third-placement breaks. Only one solve frame can ever observe a
	// given assignment count at a time (deeper frames see more
	// assignments, and each frame clears its buffer on entry), so one
	// buffer per depth suffices.
	orbitBuf  map[orbitKey]bool
	orbitBuf2 map[orbitKey2]bool
}

func newSearcher(g *constraint.Graph, k int) *searcher {
	nn := len(g.Nodes)
	s := &searcher{
		g:          g,
		k:          k,
		word:       k <= wordDim,
		aface:      make([]face.Face, nn),
		ahave:      make([]bool, nn),
		stack:      make([]*constraint.Node, 0, nn),
		codes:      make([]int, 0, g.N),
		wides:      make([]int, 0, nn-g.N+1),
		card:       make([]int, nn),
		singletons: make([]*constraint.Node, g.N),
	}
	if s.word {
		s.vbits = make([]uint64, nn)
	}
	for i, nd := range g.Nodes {
		s.card[i] = nd.Set.Card()
		switch {
		case s.card[i] == 1:
			s.singletons[nd.Set.Members()[0]] = nd
		case nd.Cat() == constraint.Cat2:
			s.cat2 = append(s.cat2, nd)
		}
	}
	// The universe is pre-assigned the full face.
	s.assign(g.Universe, face.Full(k))
	return s
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
	if s.card[i] == 1 {
		s.codes = append(s.codes, i)
		if s.word {
			s.usedCodes |= 1 << f.Val
		}
		return
	}
	s.wides = append(s.wides, i)
	if s.word {
		s.vbits[i] = vertexMask(f)
	}
}

// undo unassigns the nodes above stack height mark, last assigned first.
func (s *searcher) undo(mark int) {
	for len(s.stack) > mark {
		i := s.stack[len(s.stack)-1].Index
		s.stack = s.stack[:len(s.stack)-1]
		s.ahave[i] = false
		if s.card[i] != 1 {
			s.wides = s.wides[:len(s.wides)-1]
			continue
		}
		s.codes = s.codes[:len(s.codes)-1]
		if s.word {
			s.usedCodes &^= 1 << s.aface[i].Val
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
func (s *searcher) checkFaceConds(nd *constraint.Node, f face.Face) bool {
	if f.Cardinality() < s.card[nd.Index] {
		return false
	}
	rel := s.g.Rel[nd.Index*len(s.g.Nodes):]
	if s.card[nd.Index] == 1 {
		for _, j := range s.codes {
			if s.aface[j].Val == f.Val {
				return false
			}
		}
		// A singleton lies inside a constraint's face iff the state is a
		// member (for ancestors the father-chain generation guarantees it).
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

// ocOK checks the active output covering edges assuming singleton nd gets
// vertex f. Codes are the Val vertices of the singleton faces.
func (s *searcher) ocOK(nd *constraint.Node, f face.Face) bool {
	codeOf := func(sym int) (uint64, bool) {
		sg := s.singletons[sym]
		if sg == nd {
			return f.Val, true
		}
		if s.ahave[sg.Index] {
			return s.aface[sg.Index].Val, true
		}
		return 0, false
	}
	for _, e := range s.oc {
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
// branch is dead and pruning now avoids deep thrashing.
func (s *searcher) forwardCheck() bool {
	for _, sg := range s.singletons {
		if sg == nil || s.ahave[sg.Index] {
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
		if !ready {
			continue
		}
		if s.word {
			if !s.fitsWord(sg, fi) {
				return false
			}
		} else if fi.Level() <= forwardCheckMaxLevel && !s.fitsProbe(sg, fi) {
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
// the same verdict and tallies. A vertex of fi passes checkFace iff it is
// no assigned code, lies in the faces of the assigned constraints that
// contain the state and outside the others' (cardinality holds at level
// 0), and meets the output covering edges, which are tested only on the
// vertices that survive the rest. Face.Vertices enumerates in ascending
// vertex order, so the probe loop would have failed on every vertex of
// fi below the first feasible one, then passed once — or failed on all
// of fi.
func (s *searcher) fitsWord(sg *constraint.Node, fi face.Face) bool {
	all := vertexMask(fi)
	cand := all &^ s.usedCodes
	rel := s.g.Rel[sg.Index*len(s.g.Nodes):]
	for _, j := range s.wides {
		if cand == 0 {
			break
		}
		if rel[j]&constraint.RelIntersects != 0 {
			cand &= s.vbits[j]
		} else {
			cand &^= s.vbits[j]
		}
	}
	for ; cand != 0; cand &= cand - 1 {
		v := uint64(bits.TrailingZeros64(cand))
		if len(s.oc) == 0 || s.ocOK(sg, face.Vertex(s.k, v)) {
			s.checksFail += bits.OnesCount64(all & (1<<v - 1))
			s.checksOK++
			return true
		}
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
	switch nd.Cat() {
	case constraint.Cat1:
		return true
	case constraint.Cat3:
		return s.ahave[nd.Fathers[0].Index]
	case constraint.Cat2:
		if s.card[nd.Index] != 1 {
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

// feasibleLevels appends the candidate face levels for nd to buf[:0],
// best (largest) first, respecting the primary level vector for cat-1
// constraints and the father's face for cat-3 constraints. Callers pass
// a scratch buffer (stack array or the searcher's lvbuf) so the hot
// next_to_code probes never allocate; the returned slice is only valid
// until buf's next reuse.
func (s *searcher) feasibleLevels(nd *constraint.Node, buf []int) []int {
	out := buf[:0]
	if s.card[nd.Index] == 1 {
		return append(out, 0) // states take vertices
	}
	ml := minLevel(nd)
	switch nd.Cat() {
	case constraint.Cat1:
		if s.levels != nil {
			if l, ok := s.levels[nd]; ok {
				return append(out, l)
			}
		}
		return append(out, ml)
	case constraint.Cat3:
		fl := s.aface[nd.Fathers[0].Index].Level()
		if !s.allLevels {
			if ml <= fl-1 {
				return append(out, ml)
			}
			return nil
		}
		for l := ml; l <= fl-1; l++ {
			out = append(out, l)
		}
		return out
	}
	return nil
}

// shares reports whether two nodes share a child.
func shares(a, b *constraint.Node) bool {
	for _, ca := range a.Children {
		for _, cb := range b.Children {
			if ca == cb {
				return true
			}
		}
	}
	return false
}

// nextToCode implements the priority branching scheme of Section 3.4.1,
// with lic the most recently selected node (nil at the start, in which
// case the cat-1 node of largest minimum level is taken).
func (s *searcher) nextToCode(lic *constraint.Node) *constraint.Node {
	cands := s.candsBuf[:0]
	for _, nd := range s.g.Nodes {
		if s.selectable(nd) {
			cands = append(cands, nd)
		}
	}
	s.candsBuf = cands
	if len(cands) == 0 {
		return nil
	}
	maxFeasible := func(nd *constraint.Node) int {
		ls := s.feasibleLevels(nd, s.lvbuf)
		s.lvbuf = ls[:0]
		if len(ls) == 0 {
			return -1
		}
		best := ls[0]
		for _, l := range ls {
			if l > best {
				best = l
			}
		}
		return best
	}
	if lic == nil {
		best := cands[0]
		for _, nd := range cands[1:] {
			if maxFeasible(nd) > maxFeasible(best) {
				best = nd
			}
		}
		return best
	}
	cur := s.aface[lic.Index].Level()
	canLevel := func(nd *constraint.Node, l int) bool {
		ls := s.feasibleLevels(nd, s.lvbuf)
		s.lvbuf = ls[:0]
		for _, fl := range ls {
			if fl == l {
				return true
			}
		}
		return false
	}
	// Branches 1-4: same level as f(lic).
	type pred func(nd *constraint.Node) bool
	branches := []pred{
		func(nd *constraint.Node) bool {
			return nd.Cat() == constraint.Cat1 && canLevel(nd, cur) && shares(nd, lic)
		},
		func(nd *constraint.Node) bool { return nd.Cat() == constraint.Cat1 && canLevel(nd, cur) },
		func(nd *constraint.Node) bool { return canLevel(nd, cur) && shares(nd, lic) },
		func(nd *constraint.Node) bool { return canLevel(nd, cur) },
	}
	for _, br := range branches {
		for _, nd := range cands {
			if br(nd) {
				return nd
			}
		}
	}
	// Branches 5-6: maximum level below f(lic)'s, cat-1 first.
	pick := func(cat1Only bool) *constraint.Node {
		var best *constraint.Node
		bestL := -1
		for _, nd := range cands {
			if cat1Only && nd.Cat() != constraint.Cat1 {
				continue
			}
			ls := s.feasibleLevels(nd, s.lvbuf)
			s.lvbuf = ls[:0]
			for _, l := range ls {
				if l < cur && l > bestL {
					best, bestL = nd, l
				}
			}
		}
		return best
	}
	if nd := pick(true); nd != nil {
		return nd
	}
	if nd := pick(false); nd != nil {
		return nd
	}
	// Fall back: any selectable node (levels above the current one).
	return cands[0]
}

// candidates enumerates the faces to try for nd, in the paper's genface
// order (x-patterns lexicographic, then values). Category-3 faces are
// generated inside the father's face; singletons are vertices of the
// intersection of their assigned fathers' faces.
func (s *searcher) candidates(nd *constraint.Node, emit func(face.Face) bool) {
	if s.card[nd.Index] == 1 {
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
	// The level slices here must survive the recursion inside emit (the
	// search re-enters nextToCode and its scratch buffers), so each
	// candidates frame keeps its own stack buffer instead of s.lvbuf.
	var lb [16]int
	switch nd.Cat() {
	case constraint.Cat1:
		for _, l := range s.feasibleLevels(nd, lb[:0]) {
			g := face.NewGen(s.k, l)
			for f, ok := g.Next(); ok; f, ok = g.Next() {
				if !emit(f) {
					return
				}
			}
		}
	case constraint.Cat3:
		ff := s.aface[nd.Fathers[0].Index]
		// Free coordinate positions of the father's face.
		var free []int
		for i := 0; i < s.k; i++ {
			if ff.X&(1<<uint(i)) != 0 {
				free = append(free, i)
			}
		}
		m := len(free)
		for _, l := range s.feasibleLevels(nd, lb[:0]) {
			g := face.NewGen(m, l)
			for sub, ok := g.Next(); ok; sub, ok = g.Next() {
				// Map the m-dimensional subface into the father's face.
				f := face.Face{Val: ff.Val, K: s.k}
				for j, pos := range free {
					bit := uint64(1) << uint(j)
					switch {
					case sub.X&bit != 0:
						f.X |= 1 << uint(pos)
					case sub.Val&bit != 0:
						f.Val |= 1 << uint(pos)
					}
				}
				if !emit(f) {
					return
				}
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
