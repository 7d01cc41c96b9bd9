package constraint

import (
	"cmp"
	"slices"
	"strconv"
	"sync"
)

// Category of a constraint node in the input poset (Section 3.3.1):
//
//	Cat1 (primary): exactly one father, and it is the universe.
//	Cat2: more than one father — its face is determined by the intersection
//	      of its fathers' faces.
//	Cat3: exactly one father that is not the universe — its face lies
//	      inside the father's face.
//
// The universe itself has category 0.
const (
	CatUniverse = 0
	Cat1        = 1
	Cat2        = 2
	Cat3        = 3
)

// Node is one constraint of the input poset, with its Hasse-diagram
// relations: Fathers are the minimal constraints properly including it,
// Children the maximal constraints properly included in it.
type Node struct {
	Set      Set
	Fathers  []*Node
	Children []*Node
	// Original reports whether the set was one of the given input
	// constraints (as opposed to generated by the intersection closure or
	// being a singleton/universe).
	Original bool
	// Weight carries the input-constraint weight (0 for closure nodes).
	Weight int
	// Index is the node's position in Graph.Nodes.
	Index int
}

// Cat returns the node's category.
func (nd *Node) Cat() int {
	switch {
	case len(nd.Fathers) == 0:
		return CatUniverse
	case len(nd.Fathers) > 1:
		return Cat2
	case len(nd.Fathers[0].Fathers) == 0:
		return Cat1
	default:
		return Cat3
	}
}

// Pairwise relation bits of Graph.Rel.
const (
	// RelIntersects: the two node sets share a symbol.
	RelIntersects uint8 = 1 << iota
	// RelSubset: the row node's set is a subset of the column node's.
	RelSubset
	// RelSuperset: the column node's set is a subset of the row node's.
	RelSuperset
)

// Graph is the input graph IG(V,E): the intersection closure of the input
// constraints, augmented by the universe and the singletons, with
// father/child edges (Section 3.2).
type Graph struct {
	N        int // number of symbols
	Universe *Node
	Nodes    []*Node // all nodes, universe first, then decreasing cardinality
	// Rel is the flattened pairwise relation matrix: entry [i*len(Nodes)+j]
	// holds the RelIntersects/RelSubset/RelSuperset bits of node pair
	// (Nodes[i], Nodes[j]). The backtracking searcher's face-consistency
	// inner loop reads it instead of re-running word-wise Set operations.
	Rel   []uint8
	byKey map[string]*Node

	canonOnce sync.Once
	canonKey  string
}

// BuildGraph computes the input graph for n symbols and the given input
// constraints. Constraints of cardinality <2, duplicates and the universe
// are tolerated (deduplicated / merged). Closure is taken to fixpoint.
func BuildGraph(n int, ics []Constraint) *Graph {
	g := &Graph{N: n, byKey: map[string]*Node{}}

	add := func(s Set) *Node {
		k := s.Key()
		if nd, ok := g.byKey[k]; ok {
			return nd
		}
		nd := &Node{Set: s.Copy()}
		g.byKey[k] = nd
		g.Nodes = append(g.Nodes, nd)
		return nd
	}

	add(Universe(n))
	for i := 0; i < n; i++ {
		add(Singleton(n, i))
	}
	for _, c := range ics {
		if c.Set.Card() == 0 {
			continue
		}
		nd := add(c.Set)
		nd.Original = true
		nd.Weight += c.Weight
	}

	// Intersection closure to fixpoint. Each pair's intersection is
	// formed in x and its key in kb; only a new set is copied out.
	x := NewSet(n)
	var kb []byte
	for {
		var added []Set
		for i := 0; i < len(g.Nodes); i++ {
			for j := i + 1; j < len(g.Nodes); j++ {
				a, b := g.Nodes[i].Set.w, g.Nodes[j].Set.w
				for w := range x.w {
					x.w[w] = a[w] & b[w]
				}
				if x.IsEmpty() {
					continue
				}
				kb = x.AppendKey(kb[:0])
				if _, ok := g.byKey[string(kb)]; !ok {
					added = append(added, x.Copy())
					g.byKey[string(kb)] = nil // reserve to avoid duplicates this round
				}
			}
		}
		if len(added) == 0 {
			break
		}
		for _, s := range added {
			delete(g.byKey, s.Key())
			add(s)
		}
	}

	// Order: universe first, then decreasing cardinality, lexicographic
	// within, so traversals are deterministic.
	slices.SortStableFunc(g.Nodes, func(a, b *Node) int {
		if ca, cb := a.Set.Card(), b.Set.Card(); ca != cb {
			return cmp.Compare(cb, ca)
		}
		return a.Set.Compare(b.Set)
	})
	for i, nd := range g.Nodes {
		nd.Index = i
	}
	g.Universe = g.Nodes[0]

	// Father/child edges: fathers of ic are the minimal proper supersets.
	for _, nd := range g.Nodes {
		if nd == g.Universe {
			continue
		}
		var fathers []*Node
		for _, cand := range g.Nodes {
			if cand == nd || !nd.Set.ProperSubsetOf(cand.Set) {
				continue
			}
			minimal := true
			for _, other := range g.Nodes {
				if other == cand || other == nd {
					continue
				}
				if nd.Set.ProperSubsetOf(other.Set) && other.Set.ProperSubsetOf(cand.Set) {
					minimal = false
					break
				}
			}
			if minimal {
				fathers = append(fathers, cand)
			}
		}
		nd.Fathers = fathers
		for _, f := range fathers {
			f.Children = append(f.Children, nd)
		}
	}

	// Relation matrix. O(nodes²) set comparisons once, against the many
	// per-candidate probes of the searcher's inner loop.
	nn := len(g.Nodes)
	g.Rel = make([]uint8, nn*nn)
	for i, a := range g.Nodes {
		row := g.Rel[i*nn:]
		for j, b := range g.Nodes {
			var r uint8
			if a.Set.Intersects(b.Set) {
				r = RelIntersects
				if a.Set.SubsetOf(b.Set) {
					r |= RelSubset
				}
				if b.Set.SubsetOf(a.Set) {
					r |= RelSuperset
				}
			}
			row[j] = r
		}
	}
	return g
}

// CanonKey returns a canonical content key of the graph: the universe
// size plus every node's set key in the deterministic node order. Two
// graphs with equal CanonKeys present identical instances to the
// embedding search (categories, fathers and the relation matrix are all
// functions of the node sets), so the key addresses the process-wide
// failed-embedding memo. Computed lazily, safe for concurrent use.
func (g *Graph) CanonKey() string {
	g.canonOnce.Do(func() {
		b := make([]byte, 0, 16+len(g.Nodes)*(1+g.Nodes[0].Set.KeyLen()))
		b = strconv.AppendInt(b, int64(g.N), 10)
		for _, nd := range g.Nodes {
			b = append(b, '|')
			b = nd.Set.AppendKey(b)
		}
		g.canonKey = string(b)
	})
	return g.canonKey
}

// Lookup returns the node for set s, or nil.
func (g *Graph) Lookup(s Set) *Node {
	return g.byKey[s.Key()]
}

// Primaries returns the category-1 nodes in graph order.
func (g *Graph) Primaries() []*Node {
	var out []*Node
	for _, nd := range g.Nodes {
		if nd.Cat() == Cat1 {
			out = append(out, nd)
		}
	}
	return out
}

// Selectable returns the nodes chosen by next_to_code: categories 1 and 3
// (#F(ic)=1); category-2 nodes receive the intersection of their fathers'
// faces and singletons of category 2 likewise.
func (g *Graph) Selectable() []*Node {
	var out []*Node
	for _, nd := range g.Nodes {
		c := nd.Cat()
		if c == Cat1 || c == Cat3 {
			out = append(out, nd)
		}
	}
	return out
}

// MinCubeDim implements mincube_dim (Section 3.3.2): the smallest
// dimension k >= ceil(log2 N) that Fits. Fits holds for every face
// embedding, so MinCubeDim is a true lower bound on the embedding
// dimension.
func (g *Graph) MinCubeDim() int {
	k := log2ceil(g.N)
	for !g.Fits(k) {
		k++
	}
	return k
}

// Fits reports whether the k-cube passes the counting arguments of
// mincube_dim. In a face embedding every node's codes span a face that
// holds no other code, distinct nodes span distinct faces and only the
// universe spans the full cube. Every embedding in k dimensions
// therefore passes each check below, so !Fits(k) proves that none
// exists. With U = 2^k - N unused codes and l = ceil(log2 #(ic)) the
// minimum level of a non-universe node ic:
//
//  1. Level pigeonhole: ic needs l < k, and the nodes of minimum level
//     >= l must fit the faces of levels l..k-1.
//  2. Father count: if 2^l > U, #F(ic) <= k - l. Two fathers meet in ic
//     alone, so if both their faces extended ic's face along one
//     direction, the translate of ic's face along it (2^l or more codes)
//     would hold no code.
//  3. Uneven packing: v = 2^l - #(ic) > 0 unused codes lie in ic's face,
//     and one code lies in at most c = Σ_{d=lmin}^{k-1} C(k,d) of the
//     faces of levels lmin..k-1, so max v <= U and Σv <= c·U.
//
// Checks 2 and 3 are narrower than the paper's count_cond2 and
// count_cond3, which reject dimensions that embed once the cube has
// unused codes (docs/ALGORITHMS.md).
func (g *Graph) Fits(k int) bool {
	unused := 1<<uint(k) - g.N
	if unused < 0 {
		return false
	}
	need := make([]int, k) // need[l]: non-universe nodes of minimum level l
	sumV, maxV, lmin := 0, 0, k
	for _, nd := range g.Nodes {
		if nd == g.Universe {
			continue
		}
		c := nd.Set.Card()
		l := log2ceil(c)
		if l >= k {
			return false
		}
		need[l]++
		if 1<<uint(l) > unused && len(nd.Fathers) > k-l {
			return false
		}
		if v := 1<<uint(l) - c; v > 0 {
			sumV += v
			maxV = max(maxV, v)
			lmin = min(lmin, l)
		}
	}
	cum, avail := 0, 0
	for l := k - 1; l >= 0; l-- {
		cum += need[l]
		avail += binom(k, l) << uint(k-l) // faces of level l
		if cum > avail {
			return false
		}
	}
	perCode := 0
	for d := lmin; d < k; d++ {
		perCode += binom(k, d)
	}
	return maxV <= unused && sumV <= perCode*unused
}

// binom returns the binomial coefficient C(n, r) for 0 <= r <= n.
func binom(n, r int) int {
	c := 1
	for i := 0; i < r; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// log2ceil returns ceil(log2(c)) for c >= 1.
func log2ceil(c int) int {
	k, p := 0, 1
	for p < c {
		p <<= 1
		k++
	}
	return k
}
