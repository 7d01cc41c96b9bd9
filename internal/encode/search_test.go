package encode

import (
	"math/rand"
	"testing"

	"nova/internal/constraint"
	"nova/internal/face"
)

func paperGraph() *constraint.Graph {
	var ics []constraint.Constraint
	for _, v := range []string{"1110000", "0111000", "0000111", "1000110", "0000011", "0011000"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}
	return constraint.BuildGraph(7, ics)
}

// TestPosEquivPaperInstance mirrors Example 3.4.2.1: pos_equiv(IG, 4, (2,
// 2,2,2)) finds a complete assignment.
func TestPosEquivPaperInstance(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	levels := map[*constraint.Node]int{}
	for _, nd := range g.Primaries() {
		if nd.Set.Card() > 1 {
			levels[nd] = 2
			s.setLevel(nd, 2)
		}
	}
	if !s.solve(nil) {
		t.Fatal("pos_equiv failed on the paper instance at k=4, levels (2,2,2,2)")
	}
	if s.assignedCount() != len(g.Nodes) {
		t.Fatalf("assigned %d of %d nodes", s.assignedCount(), len(g.Nodes))
	}
	enc := s.extract()
	if !enc.Distinct() {
		t.Fatalf("codes not distinct: %s", enc)
	}
	// Every original constraint must be satisfied by the extracted codes.
	for _, nd := range g.Nodes {
		if nd.Original && !Satisfied(enc, nd.Set) {
			t.Fatalf("constraint %s unsatisfied", nd.Set)
		}
	}
	// Faces must respect the level vector for primaries.
	for nd, l := range levels {
		f, as := s.faceOf(nd)
		if !as {
			t.Fatalf("primary %s unassigned", nd.Set)
		}
		if got := f.Level(); got != l {
			t.Fatalf("primary %s at level %d, want %d", nd.Set, got, l)
		}
	}
}

// TestVerifyRejections exercises the individual rejection conditions.
func TestVerifyRejections(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true

	big := g.Lookup(constraint.MustFromString("1110000")) // 3 states

	// Cardinality: a level-1 face (2 vertices) cannot host 3 states.
	if s.verify(big, face.FromString("x000")) {
		t.Fatal("cardinality condition not enforced")
	}
	// Injectivity: the universe face is taken.
	if s.verify(big, face.Full(4)) {
		t.Fatal("injectivity not enforced")
	}
	// Place the first constraint, then check the semantic conditions
	// against a singleton: a state outside the constraint must not take a
	// vertex inside its face, and a member state must take one inside.
	if _, ok := s.place(big, face.FromString("x0x0")); !ok {
		t.Fatal("placing the first primary failed")
	}
	outsider := g.Lookup(constraint.MustFromString("0000100")) // state 5 ∉ {1,2,3}
	if s.verify(outsider, face.FromString("0000")) {
		t.Fatal("non-member vertex inside a constraint face not rejected")
	}
	member := g.Lookup(constraint.MustFromString("0100000")) // state 2 ∈ {1,2,3}
	if s.verify(member, face.FromString("0001")) {
		t.Fatal("member vertex outside the constraint face not rejected")
	}
	if !s.verify(member, face.FromString("0000")) {
		t.Fatal("member vertex inside the face should be accepted")
	}
	// Two non-singleton faces with disjoint sets may overlap under the
	// semantic conditions (violations surface when codes are placed).
	disjoint := g.Lookup(constraint.MustFromString("0000111"))
	if !s.verify(disjoint, face.FromString("x0xx")) {
		t.Fatal("auxiliary face overlap should be admitted")
	}
}

// TestPlaceForcesCat2 checks the fixpoint propagation of category-2
// intersections (0110000 = 0111000 ∩ 1110000 in the paper example).
func TestPlaceForcesCat2(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	a := g.Lookup(constraint.MustFromString("0111000"))
	b := g.Lookup(constraint.MustFromString("1110000"))
	if _, ok := s.place(a, face.FromString("x0x0")); !ok {
		t.Fatal("place a failed")
	}
	if _, ok := s.place(b, face.FromString("x00x")); !ok {
		t.Fatal("place b failed")
	}
	mid := g.Lookup(constraint.MustFromString("0110000"))
	f, as := s.faceOf(mid)
	if !as {
		t.Fatal("category-2 node not forced")
	}
	if f.String() != "x000" {
		t.Fatalf("forced face = %s, want x000", f)
	}
}

// TestUndoRestoresState verifies that backtracking cleans up forced
// assignments too.
func TestUndoRestoresState(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	a := g.Lookup(constraint.MustFromString("0111000"))
	b := g.Lookup(constraint.MustFromString("1110000"))
	if _, ok := s.place(a, face.FromString("x0x0")); !ok {
		t.Fatal("place a failed")
	}
	before := s.assignedCount()
	tr, ok := s.place(b, face.FromString("x00x"))
	if !ok {
		t.Fatal("place b failed")
	}
	if s.assignedCount() <= before+1 {
		t.Fatal("expected forced assignments beyond b itself")
	}
	s.undo(tr)
	if s.assignedCount() != before {
		t.Fatalf("undo left %d assigned, want %d", s.assignedCount(), before)
	}
	if _, as := s.faceOf(b); as {
		t.Fatal("b still assigned after undo")
	}
}

// TestFeasibleLevels checks the level policy: singletons at level 0,
// primaries at the vector's level (or minimum), cat-3 below the father.
func TestFeasibleLevels(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	prim := g.Lookup(constraint.MustFromString("1110000"))
	if lo, hi := s.levelRange(prim); lo != 2 || hi != 2 {
		t.Fatalf("primary min levels = [%d, %d], want [2, 2]", lo, hi)
	}
	s.setLevel(prim, 3)
	if lo, hi := s.levelRange(prim); lo != 3 || hi != 3 {
		t.Fatalf("primary vector levels = [%d, %d], want [3, 3]", lo, hi)
	}
	if lo, hi := s.levelRange(g.Lookup(constraint.MustFromString("0000010"))); lo != 0 || hi != 0 {
		t.Fatalf("singleton levels = [%d, %d], want [0, 0]", lo, hi)
	}
	// cat-3 node 0011000 under father 0111000 placed at level 2: levels
	// 1 (all levels mode) only, since min level of a 2-set is 1.
	fa := g.Lookup(constraint.MustFromString("0111000"))
	if _, ok := s.place(fa, face.FromString("x0x0")); !ok {
		t.Fatal("place failed")
	}
	c3 := g.Lookup(constraint.MustFromString("0011000"))
	if c3.Cat() != constraint.Cat3 {
		t.Fatalf("0011000 category = %d", c3.Cat())
	}
	if lo, hi := s.levelRange(c3); lo != 1 || hi != 1 {
		t.Fatalf("cat3 levels = [%d, %d], want [1, 1]", lo, hi)
	}
	// Under a level-3 father, all-levels mode admits levels 1 and 2 in
	// ascending order; semiexact keeps the minimum alone.
	s = newSearcher(g, 4)
	s.allLevels = true
	if _, ok := s.place(fa, face.FromString("xx0x")); !ok {
		t.Fatal("place at level 3 failed")
	}
	if lo, hi := s.levelRange(c3); lo != 1 || hi != 2 {
		t.Fatalf("cat3 levels under a level-3 father = [%d, %d], want [1, 2]", lo, hi)
	}
	s.allLevels = false
	if lo, hi := s.levelRange(c3); lo != 1 || hi != 1 {
		t.Fatalf("semiexact cat3 levels = [%d, %d], want [1, 1]", lo, hi)
	}
}

// TestCandidatesWithinFather ensures cat-3 candidate faces stay inside the
// father's face.
func TestCandidatesWithinFather(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	fa := g.Lookup(constraint.MustFromString("0111000"))
	ff := face.FromString("x0x0")
	if _, ok := s.place(fa, ff); !ok {
		t.Fatal("place failed")
	}
	c3 := g.Lookup(constraint.MustFromString("0011000"))
	n := 0
	s.candidates(c3, func(f face.Face) bool {
		if !ff.Contains(f) {
			t.Fatalf("candidate %s escapes father %s", f, ff)
		}
		n++
		return true
	})
	if n == 0 {
		t.Fatal("no candidates generated")
	}
}

// TestBudgetAborts checks that the work bound fires and is reported.
func TestBudgetAborts(t *testing.T) {
	g := paperGraph()
	s := newSearcher(g, 4)
	s.allLevels = true
	s.maxWork = 3
	if s.solve(nil) {
		t.Fatal("3 work units cannot solve the paper instance")
	}
	if !s.budget {
		t.Fatal("budget flag not set")
	}
}

// TestMinLevelHelper checks the ceil(log2) helper on node cardinalities.
func TestMinLevelHelper(t *testing.T) {
	g := paperGraph()
	cases := map[string]int{
		"1110000": 2, // card 3
		"0011000": 1, // card 2
		"0000010": 0, // card 1
	}
	for v, want := range cases {
		nd := g.Lookup(constraint.MustFromString(v))
		if got := minLevel(nd); got != want {
			t.Fatalf("minLevel(%s) = %d, want %d", v, got, want)
		}
	}
}

// TestVertexMask checks the one-word vertex bitmap against HasVertex on
// every face of the k-cube, k <= wordDim (k = 6 fills the whole word).
func TestVertexMask(t *testing.T) {
	for k := 1; k <= wordDim; k++ {
		for l := 0; l <= k; l++ {
			g := face.NewGen(k, l)
			for f, ok := g.Next(); ok; f, ok = g.Next() {
				var want uint64
				for v := uint64(0); v < 1<<uint(k); v++ {
					if f.HasVertex(v) {
						want |= 1 << v
					}
				}
				if got := vertexMask(f); got != want {
					t.Fatalf("vertexMask(%s) = %#x, want %#x", f, got, want)
				}
			}
		}
	}
}

// TestFitsWordMatchesProbe is the differential test of the forward
// check: on random constraint graphs (N <= 12, k from MinLength to
// wordDim, with and without output covering edges) and at every partial
// assignment a random walk of the searcher reaches, the one-word check
// must give the per-vertex probe's verdict and add the same checks_ok
// and checks_fail. The states compared are exactly those place's forward
// check sees: a verified face assigned and the forced nodes propagated.
func TestFitsWordMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var compared, level0, k6, withOC, feasible, dead int
	check := func(s *searcher) {
		for _, sg := range s.singletons {
			if s.ahave[sg.Index] {
				continue
			}
			fi, ok := face.Full(s.k), true
			for _, fa := range sg.Fathers {
				if !s.ahave[fa.Index] {
					ok = false
					break
				}
				if fi, ok = fi.Intersect(s.aface[fa.Index]); !ok {
					break
				}
			}
			if !ok {
				continue
			}
			okBefore, failBefore := s.checksOK, s.checksFail
			word := s.fitsWord(sg, vertexMask(fi))
			wordOK, wordFail := s.checksOK-okBefore, s.checksFail-failBefore
			s.checksOK, s.checksFail = okBefore, failBefore
			probe := s.fitsProbe(sg, fi)
			probeOK, probeFail := s.checksOK-okBefore, s.checksFail-failBefore
			if word != probe || wordOK != probeOK || wordFail != probeFail {
				t.Fatalf("N=%d k=%d oc=%v singleton %s in %s: word (%v, ok+%d, fail+%d), probe (%v, ok+%d, fail+%d)",
					s.g.N, s.k, s.oc, sg.Set, fi, word, wordOK, wordFail, probe, probeOK, probeFail)
			}
			compared++
			if fi.X == 0 {
				level0++
			}
			if s.k == wordDim {
				k6++
			}
			if len(s.oc) > 0 {
				withOC++
			}
			if word {
				feasible++
			} else {
				dead++
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(11)
		k := MinLength(n) + rng.Intn(wordDim-MinLength(n)+1)
		g := constraint.BuildGraph(n, randomInstance(rng, n, 1+rng.Intn(6)))
		s := newSearcher(g, k)
		s.allLevels = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			var oc []OCEdge
			for e := 1 + rng.Intn(3); e > 0; e-- {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					oc = append(oc, OCEdge{U: u, V: v})
				}
			}
			s.setOC(oc)
		}
		var lic *constraint.Node
		for nd := s.nextToCode(nil); nd != nil; nd = s.nextToCode(lic) {
			var cands []face.Face
			s.candidates(nd, func(f face.Face) bool {
				cands = append(cands, f)
				return len(cands) < 32
			})
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			advanced := false
			for _, f := range cands {
				mark := len(s.stack)
				if s.verify(nd, f) {
					s.assign(nd, f)
					if s.propagate() {
						check(s)
					}
				}
				s.undo(mark)
				if _, advanced = s.place(nd, f); advanced {
					break
				}
			}
			if !advanced {
				break
			}
			lic = nd
		}
	}
	t.Logf("compared %d forward checks: %d at level 0, %d at k=6, %d with OC edges, %d feasible, %d dead",
		compared, level0, k6, withOC, feasible, dead)
	if level0 == 0 || k6 == 0 || withOC == 0 || feasible == 0 || dead == 0 {
		t.Fatal("the random walks missed a case the differential test must cover")
	}
}

// TestOrbitBreakSound checks the orbit breaks at the second and third
// placements against the search without them. On random graphs (N <= 9,
// k from MinLength to 4, nested constraints common), in semiexact's
// level mode and in iexact's (every level, primaries at a random level
// of their window), an unbounded search with the breaks must embed
// exactly when the search with noPrune set does, and its encoding must
// satisfy every constraint. A key that merges two orbits whose subtrees
// differ skips a face the search needs, so the verdicts part.
func TestOrbitBreakSound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var embedded, skips int
	for graph := 0; graph < 3000; graph++ {
		n := 3 + rng.Intn(7)
		k := MinLength(n) + rng.Intn(5-MinLength(n))
		ics := nestedInstance(rng, n)
		g := constraint.BuildGraph(n, ics)
		levels := map[*constraint.Node]int{}
		for _, nd := range g.Primaries() {
			if ml := minLevel(nd); nd.Set.Card() > 1 && ml < k {
				levels[nd] = ml + rng.Intn(k-ml)
			}
		}
		for _, iexact := range []bool{false, true} {
			run := func(noPrune bool) *searcher {
				s := newSearcher(g, k)
				s.noPrune = noPrune
				if iexact {
					s.allLevels = true
					for nd, l := range levels {
						s.setLevel(nd, l)
					}
				}
				s.solved = s.solve(nil)
				return s
			}
			pruned, ref := run(false), run(true)
			if pruned.solved != ref.solved {
				t.Fatalf("N=%d k=%d iexact levels=%v: with orbit breaks solved=%v, without %v; constraints %v",
					n, k, iexact, pruned.solved, ref.solved, ics)
			}
			skips += pruned.symPruned
			if !pruned.solved {
				continue
			}
			embedded++
			enc := pruned.extract()
			for _, c := range ics {
				if !Satisfied(enc, c.Set) {
					t.Fatalf("N=%d k=%d iexact levels=%v: constraint %s unsatisfied by %v", n, k, iexact, c.Set, enc.Codes)
				}
			}
		}
	}
	t.Logf("%d embeddings, %d orbit skips", embedded, skips)
	if embedded == 0 || skips == 0 {
		t.Fatal("the random graphs never embedded or never skipped an orbit")
	}
}
