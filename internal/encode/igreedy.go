package encode

import (
	"sort"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/face"
)

// IGreedy implements igreedy_code (Section V): a fast one-pass heuristic
// for a given code length. It computes all intersections of the input
// constraints and encodes going upwards from the deepest of them, giving
// priority to common subconstraints; earlier choices are never undone, so
// some encoding space may remain unused. bits below the minimum code
// length (bits <= 0 included) selects the minimum.
func IGreedy(n int, ics []constraint.Constraint, bits int) Result {
	ics = constraint.Normalize(ics)
	k := max(bits, MinLength(n))
	g := constraint.BuildGraph(n, ics)

	var res Result
	// Deepest first: increasing cardinality; heavier and lexicographically
	// smaller constraints first within a level.
	nodes := make([]*constraint.Node, 0, len(g.Nodes))
	for _, nd := range g.Nodes {
		if nd != g.Universe && nd.Set.Card() >= 2 {
			nodes = append(nodes, nd)
		}
	}
	sort.SliceStable(nodes, func(i, j int) bool {
		ci, cj := nodes[i].Set.Card(), nodes[j].Set.Card()
		if ci != cj {
			return ci < cj
		}
		if nodes[i].Weight != nodes[j].Weight {
			return nodes[i].Weight > nodes[j].Weight
		}
		return nodes[i].Set.String() < nodes[j].Set.String()
	})

	st := &greedyState{n: n, k: k, codes: make([]int64, n)}
	for i := range st.codes {
		st.codes[i] = -1
	}
	for _, nd := range nodes {
		st.tryNode(nd)
		res.Work += st.work
		st.work = 0
	}
	st.placeRemaining()

	res.Enc = encoding.New(n, k)
	for i, c := range st.codes {
		res.Enc.Codes[i] = uint64(c)
	}
	score(&res, ics)
	return res
}

// greedyState tracks the partial greedy encoding: per-state codes (-1 when
// unplaced), the claimed faces of the satisfied constraints, and the used
// vertices.
type greedyState struct {
	n, k  int
	codes []int64
	sat   []claim
	used  map[uint64]bool
	work  int
}

type claim struct {
	set constraint.Set
	f   face.Face
}

func (st *greedyState) isUsed(v uint64) bool { return st.used != nil && st.used[v] }

func (st *greedyState) use(v uint64) {
	if st.used == nil {
		st.used = map[uint64]bool{}
	}
	st.used[v] = true
}

// tryNode attempts to claim a face for the node's constraint and place its
// unplaced member states inside it; on any failure the node is skipped and
// all partial placements are rolled back.
func (st *greedyState) tryNode(nd *constraint.Node) {
	members := nd.Set.Members()
	// Supercube of already-placed members.
	var and, or uint64
	placedAny := false
	unplaced := make([]int, 0, len(members))
	for _, m := range members {
		if st.codes[m] < 0 {
			unplaced = append(unplaced, m)
			continue
		}
		c := uint64(st.codes[m])
		if !placedAny {
			and, or, placedAny = c, c, true
		} else {
			and &= c
			or |= c
		}
	}
	ml := minLevel(nd)
	for l := ml; l <= st.k; l++ {
		gen := face.NewGen(st.k, l)
		for f, ok := gen.Next(); ok; f, ok = gen.Next() {
			st.work++
			if placedAny {
				sc := face.Face{Val: and &^ (and ^ or), X: and ^ or, K: st.k}
				if !f.Contains(sc) {
					continue
				}
			}
			if st.faceOK(nd.Set, f) && st.placeMembers(nd, f, unplaced) {
				st.sat = append(st.sat, claim{set: nd.Set.Copy(), f: f})
				return
			}
		}
	}
}

// faceOK checks a candidate face for constraint set s against the placed
// codes and the claimed faces.
func (st *greedyState) faceOK(s constraint.Set, f face.Face) bool {
	// Placed non-members must be outside; placed members inside (the
	// supercube check covers members, but keep it for safety with -1s).
	for i := 0; i < st.n; i++ {
		if st.codes[i] < 0 {
			continue
		}
		in := f.HasVertex(uint64(st.codes[i]))
		if s.Has(i) && !in {
			return false
		}
		if !s.Has(i) && in {
			return false
		}
	}
	for _, cl := range st.sat {
		switch {
		case !s.Intersects(cl.set):
			if f.Intersects(cl.f) {
				return false
			}
		case s.SubsetOf(cl.set):
			if !cl.f.Contains(f) {
				return false
			}
		case cl.set.SubsetOf(s):
			if !f.Contains(cl.f) {
				return false
			}
		default:
			h, ok := f.Intersect(cl.f)
			if !ok || h.Cardinality() < s.IntersectCard(cl.set) {
				return false
			}
		}
	}
	return true
}

// placeMembers places the unplaced member states on free vertices of f
// consistent with every claimed face; it returns false (rolling back) when
// some member cannot be placed.
func (st *greedyState) placeMembers(nd *constraint.Node, f face.Face, unplaced []int) bool {
	var placed []int
	ok := true
	for _, m := range unplaced {
		v, found := st.findVertex(m, f)
		if !found {
			ok = false
			break
		}
		st.codes[m] = int64(v)
		st.use(v)
		placed = append(placed, m)
	}
	if !ok {
		for _, m := range placed {
			delete(st.used, uint64(st.codes[m]))
			st.codes[m] = -1
		}
		return false
	}
	return true
}

// findVertex returns a free vertex of f admissible for state m: inside
// every claimed face whose set contains m, outside every claimed face
// whose set does not.
func (st *greedyState) findVertex(m int, f face.Face) (uint64, bool) {
	var out uint64
	found := false
	f.Vertices(func(v uint64) {
		if found || st.isUsed(v) {
			return
		}
		for _, cl := range st.sat {
			if cl.set.Has(m) != cl.f.HasVertex(v) {
				return
			}
		}
		out, found = v, true
	})
	return out, found
}

// placeRemaining assigns codes to states left unplaced: first vertices
// admissible w.r.t. the claimed faces, then any free vertex.
func (st *greedyState) placeRemaining() {
	full := face.Full(st.k)
	for m := 0; m < st.n; m++ {
		if st.codes[m] >= 0 {
			continue
		}
		if v, ok := st.findVertex(m, full); ok {
			st.codes[m] = int64(v)
			st.use(v)
			continue
		}
		for v := uint64(0); v < 1<<uint(st.k); v++ {
			if !st.isUsed(v) {
				st.codes[m] = int64(v)
				st.use(v)
				break
			}
		}
	}
}
