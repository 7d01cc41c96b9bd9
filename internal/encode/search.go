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

// faceKey identifies a face for injectivity checks.
type faceKey struct{ val, x uint64 }

func keyOf(f face.Face) faceKey { return faceKey{f.Val &^ f.X, f.X} }

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
	checksOK   int // checkFace probes that passed
	checksFail int // checkFace probes that failed
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
	// valid iff ahave[i]. alist is the set of assigned nodes in
	// insertion order (universe first) — the searcher's verdicts are
	// independent of iteration order, so unassign swap-removes through
	// apos. single caches Card()==1 per node.
	aface  []face.Face
	ahave  []bool
	apos   []int32
	alist  []*constraint.Node
	single []bool
	used   map[faceKey]*constraint.Node

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
		g:      g,
		k:      k,
		aface:  make([]face.Face, nn),
		ahave:  make([]bool, nn),
		apos:   make([]int32, nn),
		single: make([]bool, nn),
		alist:  make([]*constraint.Node, 0, nn),
		used:   make(map[faceKey]*constraint.Node, nn),
	}
	s.singletons = make([]*constraint.Node, g.N)
	for i, nd := range g.Nodes {
		if nd.Set.Card() == 1 {
			s.single[i] = true
			s.singletons[nd.Set.Members()[0]] = nd
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
	s.apos[i] = int32(len(s.alist))
	s.alist = append(s.alist, nd)
	s.used[keyOf(f)] = nd
}

func (s *searcher) unassign(nd *constraint.Node) {
	i := nd.Index
	if !s.ahave[i] {
		return
	}
	s.ahave[i] = false
	delete(s.used, keyOf(s.aface[i]))
	p := s.apos[i]
	last := len(s.alist) - 1
	if int(p) != last {
		moved := s.alist[last]
		s.alist[p] = moved
		s.apos[moved.Index] = p
	}
	s.alist = s.alist[:last]
}

// faceOf returns nd's assigned face, if any (tests and reporting).
func (s *searcher) faceOf(nd *constraint.Node) (face.Face, bool) {
	if nd == nil || !s.ahave[nd.Index] {
		return face.Face{}, false
	}
	return s.aface[nd.Index], true
}

// assignedCount returns the number of assigned nodes, universe included.
func (s *searcher) assignedCount() int { return len(s.alist) }

// verify implements the incremental correctness checks of Section 3.4.3
// for a face f proposed for nd, against every assigned node:
//
//	input poset:  the single father's face must include f (guaranteed by
//	              construction for categories 1 and 3: candidates are
//	              generated inside the father's face); category-2 faces are
//	              the exact intersection of their fathers' faces (place).
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

func (s *searcher) checkFaceConds(nd *constraint.Node, f face.Face) bool {
	if f.Cardinality() < nd.Set.Card() {
		return false
	}
	// Injectivity. (Two different constraints sharing a face always break
	// the final encoding — some differing member's code would sit in a
	// face whose constraint excludes it — so rejecting early is sound.)
	if _, dup := s.used[keyOf(f)]; dup {
		return false
	}
	ndSingle := s.single[nd.Index]
	rel := s.g.Rel[nd.Index*len(s.g.Nodes):]
	for _, jc := range s.alist {
		j := jc.Index
		jcSingle := s.single[j]
		// The defining condition of FACE HYPERCUBE EMBEDDING relates
		// constraint faces to state codes: f(ic) ∩ f(s) ≠ Φ ⇔ s ∈ ic.
		// Between two non-singleton faces no relation is required — the
		// auxiliary closure faces may overlap as long as the eventually
		// placed codes respect every original constraint, which the
		// singleton checks below enforce.
		if !ndSingle && !jcSingle {
			continue
		}
		nonempty := f.Intersects(s.aface[j])
		r := rel[j]
		if r&constraint.RelIntersects == 0 {
			if nonempty {
				return false
			}
			continue
		}
		// A singleton inside a constraint must lie inside its face: the
		// father-chain generation guarantees it for ancestors, and for
		// non-ancestors membership still requires the vertex inside.
		if ndSingle && !jcSingle && r&constraint.RelSubset != 0 && !nonempty {
			return false
		}
		if jcSingle && !ndSingle && r&constraint.RelSuperset != 0 && !nonempty {
			return false
		}
	}
	// Output covering constraints between encoded singletons. Codes are
	// the Val vertices of the singleton faces.
	if len(s.oc) > 0 && !s.ocOK(nd, f) {
		return false
	}
	return true
}

// ocOK checks the active output covering edges assuming nd gets face f.
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
	if nd.Set.Card() != 1 {
		return true
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

// trail records one assignment step for undo: the selected node plus the
// forced category-2 nodes assigned alongside it.
type trail struct {
	nodes []*constraint.Node
}

func (s *searcher) undo(t trail) {
	for _, nd := range t.nodes {
		s.unassign(nd)
	}
}

// place assigns f to nd after verification, then propagates forced
// category-2 assignments to fixpoint. It returns the undo trail and true,
// or an empty trail and false when any step fails (the partial work is
// rolled back).
func (s *searcher) place(nd *constraint.Node, f face.Face) (trail, bool) {
	var t trail
	if !s.verify(nd, f) {
		return trail{}, false
	}
	s.assign(nd, f)
	t.nodes = append(t.nodes, nd)
	// Forced assignments: any unassigned non-singleton cat-2 node whose
	// fathers are all assigned receives the intersection of its fathers'
	// faces (D(ic) of assign_face, taken to fixpoint). Singletons are not
	// forced: they are selected and enumerated as vertices inside their
	// fathers' intersection, so the backtracking can revisit the choice.
	for {
		var next *constraint.Node
		for _, cand := range s.g.Nodes {
			if s.ahave[cand.Index] || cand.Cat() != constraint.Cat2 || s.single[cand.Index] {
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
			break
		}
		fi := s.aface[next.Fathers[0].Index]
		okI := true
		for _, fa := range next.Fathers[1:] {
			fi, okI = fi.Intersect(s.aface[fa.Index])
			if !okI {
				break
			}
		}
		if !okI {
			s.undo(t)
			return trail{}, false
		}
		if !s.verify(next, fi) {
			s.undo(t)
			return trail{}, false
		}
		s.assign(next, fi)
		t.nodes = append(t.nodes, next)
	}
	// Forward check: every unassigned singleton whose fathers are all
	// assigned must still have at least one feasible vertex; otherwise
	// this branch is dead and pruning now avoids deep thrashing. Probing
	// is bounded: singletons whose fathers' intersection spans more than
	// 2^forwardCheckMaxLevel vertices are skipped (plenty of room there,
	// and enumerating the vertices would dominate the search).
	const forwardCheckMaxLevel = 6
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
			fi, ok = fi.Intersect(s.aface[fa.Index])
			if !ok {
				// All fathers assigned with an empty intersection: the
				// singleton has nowhere to go.
				s.undo(t)
				return trail{}, false
			}
		}
		if !ready || fi.Level() > forwardCheckMaxLevel {
			continue
		}
		feasible := false
		stop := false
		fi.Vertices(func(v uint64) {
			if stop {
				return
			}
			if s.checkFace(sg, face.Vertex(s.k, v)) {
				feasible = true
				stop = true
			}
		})
		if !feasible {
			s.undo(t)
			return trail{}, false
		}
	}
	return t, true
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
		if !s.single[nd.Index] {
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
	if nd.Set.Card() == 1 {
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
	if nd.Set.Card() == 1 {
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
		return len(s.alist) == len(s.g.Nodes)
	}
	first := len(s.alist) == 1 && len(s.oc) == 0 // only the universe placed
	var orbitSeen map[orbitKey]bool
	var x0 uint64
	var orbit2Seen map[orbitKey2]bool
	var cls2 [6]uint64
	if !s.noPrune && len(s.oc) == 0 && len(s.alist) == 2 {
		// Second placement: alist is {universe, f0's node}. The orbit
		// argument needs f0 canonical (guaranteed by genface order via
		// the first-placement break; checked defensively — forced
		// assignments or a non-first surviving candidate void it).
		f0 := s.aface[s.alist[1].Index]
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
	if !s.noPrune && len(s.oc) == 0 && len(s.alist) == 3 {
		// Third placement: f0 must again be canonical; f1 is arbitrary.
		f0 := s.aface[s.alist[1].Index]
		if f0.Val&^f0.X == 0 && f0.X == lowMask(f0.Level()) {
			f1 := s.aface[s.alist[2].Index]
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
	out := make(map[string]face.Face, len(s.alist))
	for _, nd := range s.alist {
		out[nd.Set.String()] = s.aface[nd.Index]
	}
	return out
}
