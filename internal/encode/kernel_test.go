package encode

import (
	"math/rand"
	"testing"

	"nova/internal/constraint"
	"nova/internal/face"
)

// kernelRef recomputes the searcher's decisions the way the kernel made
// them before it kept per-assignment state: next_to_code from
// feasibleLevels lists, children compared pairwise, and every probe of a
// code walking the assigned codes, the assigned wider faces and all the
// output covering edges. It reads only the assignment itself (aface,
// ahave, codes, wides) and tallies into the searcher's counters, so a
// test can hold the incremental kernel to it decision by decision.
type kernelRef struct {
	s      *searcher
	levels map[*constraint.Node]int // the primary level vector; nil = minimum levels
}

// feasibleLevels lists nd's candidate face levels: the primary level
// vector for category 1, and for category 3 the levels below the
// father's face, smallest first.
func (r *kernelRef) feasibleLevels(nd *constraint.Node) []int {
	s := r.s
	if nd.Set.Card() == 1 {
		return []int{0}
	}
	ml := minLevel(nd)
	switch nd.Cat() {
	case constraint.Cat1:
		if l, ok := r.levels[nd]; ok {
			return []int{l}
		}
		return []int{ml}
	case constraint.Cat3:
		fl := s.aface[nd.Fathers[0].Index].Level()
		if !s.allLevels {
			if ml <= fl-1 {
				return []int{ml}
			}
			return nil
		}
		var out []int
		for l := ml; l <= fl-1; l++ {
			out = append(out, l)
		}
		return out
	}
	return nil
}

// refShares reports whether two nodes share a child.
func refShares(a, b *constraint.Node) bool {
	for _, ca := range a.Children {
		for _, cb := range b.Children {
			if ca == cb {
				return true
			}
		}
	}
	return false
}

func (r *kernelRef) selectable(nd *constraint.Node) bool {
	s := r.s
	if s.ahave[nd.Index] {
		return false
	}
	switch nd.Cat() {
	case constraint.Cat1:
		return true
	case constraint.Cat3:
		return s.ahave[nd.Fathers[0].Index]
	case constraint.Cat2:
		if nd.Set.Card() != 1 {
			return false
		}
		for _, fa := range nd.Fathers {
			if !s.ahave[fa.Index] {
				return false
			}
		}
		return true
	}
	return false
}

// nextToCode is the priority branching of Section 3.4.1, one predicate
// per branch, each scanning the candidates in graph order.
func (r *kernelRef) nextToCode(lic *constraint.Node) *constraint.Node {
	s := r.s
	var cands []*constraint.Node
	for _, nd := range s.g.Nodes {
		if r.selectable(nd) {
			cands = append(cands, nd)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	maxFeasible := func(nd *constraint.Node) int {
		best := -1
		for _, l := range r.feasibleLevels(nd) {
			best = max(best, l)
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
		for _, fl := range r.feasibleLevels(nd) {
			if fl == l {
				return true
			}
		}
		return false
	}
	branches := []func(nd *constraint.Node) bool{
		func(nd *constraint.Node) bool {
			return nd.Cat() == constraint.Cat1 && canLevel(nd, cur) && refShares(nd, lic)
		},
		func(nd *constraint.Node) bool { return nd.Cat() == constraint.Cat1 && canLevel(nd, cur) },
		func(nd *constraint.Node) bool { return canLevel(nd, cur) && refShares(nd, lic) },
		func(nd *constraint.Node) bool { return canLevel(nd, cur) },
	}
	for _, br := range branches {
		for _, nd := range cands {
			if br(nd) {
				return nd
			}
		}
	}
	pick := func(cat1Only bool) *constraint.Node {
		var best *constraint.Node
		bestL := -1
		for _, nd := range cands {
			if cat1Only && nd.Cat() != constraint.Cat1 {
				continue
			}
			for _, l := range r.feasibleLevels(nd) {
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
	return cands[0]
}

// candidates lists nd's candidate faces in genface order, level by level
// in feasibleLevels order; singletons take the vertices of their assigned
// fathers' intersection.
func (r *kernelRef) candidates(nd *constraint.Node) []face.Face {
	s := r.s
	var out []face.Face
	if nd.Set.Card() == 1 {
		fi := s.aface[nd.Fathers[0].Index]
		for _, fa := range nd.Fathers[1:] {
			if s.ahave[fa.Index] {
				var ok bool
				if fi, ok = fi.Intersect(s.aface[fa.Index]); !ok {
					return nil
				}
			}
		}
		fi.Vertices(func(v uint64) { out = append(out, face.Vertex(s.k, v)) })
		return out
	}
	switch nd.Cat() {
	case constraint.Cat1:
		for _, l := range r.feasibleLevels(nd) {
			g := face.NewGen(s.k, l)
			for f, ok := g.Next(); ok; f, ok = g.Next() {
				out = append(out, f)
			}
		}
	case constraint.Cat3:
		ff := s.aface[nd.Fathers[0].Index]
		var free []int
		for i := 0; i < s.k; i++ {
			if ff.X&(1<<uint(i)) != 0 {
				free = append(free, i)
			}
		}
		for _, l := range r.feasibleLevels(nd) {
			g := face.NewGen(len(free), l)
			for sub, ok := g.Next(); ok; sub, ok = g.Next() {
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
				out = append(out, f)
			}
		}
	}
	return out
}

// ocOK checks every output covering edge whose two ends have codes,
// assuming singleton nd gets vertex f.
func (r *kernelRef) ocOK(nd *constraint.Node, f face.Face) bool {
	s := r.s
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

// checkFaceConds walks the assigned codes and wider faces for every
// probe, with the covering edges checked by the all-edges ocOK.
func (r *kernelRef) checkFaceConds(nd *constraint.Node, f face.Face) bool {
	s := r.s
	if f.Cardinality() < nd.Set.Card() {
		return false
	}
	rel := s.g.Rel[nd.Index*len(s.g.Nodes):]
	if nd.Set.Card() == 1 {
		for _, j := range s.codes {
			if s.aface[j].Val == f.Val {
				return false
			}
		}
		for _, j := range s.wides {
			if f.Intersects(s.aface[j]) != (rel[j]&constraint.RelIntersects != 0) {
				return false
			}
		}
		return len(s.oc) == 0 || r.ocOK(nd, f)
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

func (r *kernelRef) checkFace(nd *constraint.Node, f face.Face) bool {
	ok := r.checkFaceConds(nd, f)
	if ok {
		r.s.checksOK++
	} else {
		r.s.checksFail++
	}
	return ok
}

func (r *kernelRef) verify(nd *constraint.Node, f face.Face) bool {
	r.s.work++
	return r.checkFace(nd, f)
}

// forwardCheck intersects each ready singleton's fathers as faces and
// probes the vertices of the intersection one by one.
func (r *kernelRef) forwardCheck() bool {
	s := r.s
	for _, sg := range s.singletons {
		if s.ahave[sg.Index] {
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
				return false
			}
		}
		if !ready || fi.Level() > forwardCheckMaxLevel {
			continue
		}
		feasible := false
		fi.Vertices(func(v uint64) {
			if !feasible && r.checkFace(sg, face.Vertex(s.k, v)) {
				feasible = true
			}
		})
		if !feasible {
			return false
		}
	}
	return true
}

func (r *kernelRef) propagate() bool {
	s := r.s
	for {
		var next *constraint.Node
		for _, cand := range s.cat2 {
			if s.ahave[cand.Index] {
				continue
			}
			ready := true
			for _, fa := range cand.Fathers {
				ready = ready && s.ahave[fa.Index]
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
		if !r.verify(next, fi) {
			return false
		}
		s.assign(next, fi)
	}
}

func (r *kernelRef) place(nd *constraint.Node, f face.Face) (int, bool) {
	s := r.s
	mark := len(s.stack)
	if !r.verify(nd, f) {
		return mark, false
	}
	s.assign(nd, f)
	if !r.propagate() || !r.forwardCheck() {
		s.undo(mark)
		return mark, false
	}
	return mark, true
}

// nodeSet renders a node for failure messages.
func nodeSet(nd *constraint.Node) string {
	if nd == nil {
		return "nil"
	}
	return nd.Set.String()
}

// tally is one probe's outcome: the verdict, the checks it counted, the
// work it spent and the node count it left assigned.
type tally struct {
	ok                bool
	checksOK, fail, w int
	assigned          int
}

// measure runs probe on s and returns its tally, restoring the counters.
func measure(s *searcher, probe func() bool) tally {
	okB, failB, wB := s.checksOK, s.checksFail, s.work
	ok := probe()
	t := tally{ok: ok, checksOK: s.checksOK - okB, fail: s.checksFail - failB, w: s.work - wB, assigned: len(s.stack)}
	s.checksOK, s.checksFail, s.work = okB, failB, wB
	return t
}

// ocPartnersPlaced reports whether state st has an output covering edge
// to a placed state with st at the edge's U end (atU), and one with st
// at its V end (atV).
func ocPartnersPlaced(s *searcher, st int) (atU, atV bool) {
	for _, e := range s.oc {
		atU = atU || e.U == st && s.ahave[s.singletons[e.V].Index]
		atV = atV || e.V == st && s.ahave[s.singletons[e.U].Index]
	}
	return atU, atV
}

// TestKernelMatchesReference walks random constraint graphs (N <= 12, k
// from MinLength to 7, so k = 7 takes the wide-cube path) with and
// without output covering edges, in both level modes and with random
// primary level vectors. At every state it reaches, the searcher must
// pick the reference's node and list the same candidate faces, and for
// each candidate both the single check and the whole placement
// (verification, forced assignments, forward check) must give the
// reference's verdict and add the same checks_ok, checks_fail and work.
// Every placement is undone before the next, so a state the kernel
// failed to restore shows up as a diverging verdict. In cubes of at most
// wordDim dimensions the covering edges live in the vertex masks, so the
// walks must probe states whose edge partner is placed, at either end of
// the edge, and undo placements of states with edges.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var states, probes, placed, wide, withOC, withLevels, allLv, lvAbove int
	var ocProbeU, ocProbeV, ocUndone int
	for trial := 0; trial < 1000; trial++ {
		n := 2 + rng.Intn(11)
		k := MinLength(n) + rng.Intn(8-MinLength(n))
		g := constraint.BuildGraph(n, randomInstance(rng, n, 1+rng.Intn(6)))
		s := newSearcher(g, k)
		r := &kernelRef{s: s}
		s.allLevels = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			r.levels = map[*constraint.Node]int{}
			for _, nd := range g.Primaries() {
				if ml := minLevel(nd); nd.Set.Card() > 1 && ml < k {
					l := ml + rng.Intn(k-ml)
					r.levels[nd] = l
					s.setLevel(nd, l)
				}
			}
			withLevels++
		}
		if rng.Intn(2) == 0 {
			var oc []OCEdge
			for e := 1 + rng.Intn(4); e > 0; e-- {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					oc = append(oc, OCEdge{U: u, V: v})
				}
			}
			s.setOC(oc)
			withOC++
		}
		if k > wordDim {
			wide++
		}
		if s.allLevels {
			allLv++
		}
		var lic *constraint.Node
		for {
			nd, want := s.nextToCode(lic), r.nextToCode(lic)
			if nd != want {
				t.Fatalf("trial %d (N=%d k=%d allLevels=%v): nextToCode(%s) = %s, reference %s",
					trial, n, k, s.allLevels, nodeSet(lic), nodeSet(nd), nodeSet(want))
			}
			if nd == nil {
				break
			}
			states++
			var cands []face.Face
			s.candidates(nd, func(f face.Face) bool {
				cands = append(cands, f)
				return true
			})
			ref := r.candidates(nd)
			if len(cands) != len(ref) {
				t.Fatalf("trial %d: %d candidates for %s, reference %d", trial, len(cands), nd.Set, len(ref))
			}
			for i := range cands {
				if cands[i] != ref[i] {
					t.Fatalf("trial %d: candidate %d of %s is %s, reference %s", trial, i, nd.Set, cands[i], ref[i])
				}
				if nd.Set.Card() > 1 && cands[i].Level() > minLevel(nd) {
					lvAbove++
				}
			}
			st, ocWord := -1, s.word && len(s.oc) > 0 && nd.Set.Card() == 1
			if ocWord {
				st = nd.Set.Members()[0]
				atU, atV := ocPartnersPlaced(s, st)
				if atU {
					ocProbeU += len(cands)
				}
				if atV {
					ocProbeV += len(cands)
				}
			}
			var next []face.Face
			for _, f := range cands {
				probes++
				got := measure(s, func() bool { return s.checkFace(nd, f) })
				exp := measure(s, func() bool { return r.checkFace(nd, f) })
				if got != exp {
					t.Fatalf("trial %d: checkFace(%s, %s) = %+v, reference %+v", trial, nd.Set, f, got, exp)
				}
				var mark int
				got = measure(s, func() bool {
					var ok bool
					mark, ok = s.place(nd, f)
					return ok
				})
				s.undo(mark)
				if got.ok && ocWord && len(s.ocAt[st]) > 0 {
					ocUndone++
				}
				exp = measure(s, func() bool {
					var ok bool
					mark, ok = r.place(nd, f)
					return ok
				})
				s.undo(mark)
				if got != exp {
					t.Fatalf("trial %d (N=%d k=%d oc=%v): place(%s, %s) = %+v, reference %+v",
						trial, n, k, s.oc, nd.Set, f, got, exp)
				}
				if got.ok {
					next = append(next, f)
				}
			}
			if len(next) == 0 {
				break
			}
			placed++
			if _, ok := s.place(nd, next[rng.Intn(len(next))]); !ok {
				t.Fatalf("trial %d: a placement that passed did not replay", trial)
			}
			lic = nd
		}
	}
	t.Logf("%d states, %d candidate probes, %d placements; trials: %d at k=7, %d with OC edges, %d with level vectors, %d in all-levels mode; %d candidates above their minimum level; k <= %d: %d probes with a placed OC partner at U, %d at V, %d undone placements of a state with OC edges",
		states, probes, placed, wide, withOC, withLevels, allLv, lvAbove, wordDim, ocProbeU, ocProbeV, ocUndone)
	if wide == 0 || withOC == 0 || withLevels == 0 || allLv == 0 || lvAbove == 0 || placed == 0 ||
		ocProbeU == 0 || ocProbeV == 0 || ocUndone == 0 {
		t.Fatal("the random walks missed a case the identity test must cover")
	}
}
