package constraint

import (
	"testing"
	"testing/quick"
)

// paperIC is the running example of Sections 3.1-3.4: Example 3.1.1.
func paperIC() []Constraint {
	var ics []Constraint
	for _, v := range []string{"1110000", "0111000", "0000111", "1000110", "0000011", "0011000"} {
		ics = append(ics, Constraint{Set: MustFromString(v), Weight: 1})
	}
	return ics
}

func TestSetBasics(t *testing.T) {
	s := MustFromString("1010")
	if s.N() != 4 || s.Card() != 2 {
		t.Fatalf("N=%d Card=%d", s.N(), s.Card())
	}
	if !s.Has(0) || s.Has(1) || !s.Has(2) {
		t.Fatal("membership wrong")
	}
	if s.String() != "1010" {
		t.Fatalf("String = %q", s.String())
	}
	u := Universe(4)
	if !s.SubsetOf(u) || !s.ProperSubsetOf(u) || u.SubsetOf(s) {
		t.Fatal("subset relations wrong")
	}
	if got := s.Intersect(MustFromString("0110")); got.String() != "0010" {
		t.Fatalf("Intersect = %s", got)
	}
	if got := s.Union(MustFromString("0110")); got.String() != "1110" {
		t.Fatalf("Union = %s", got)
	}
}

func TestSetMembers(t *testing.T) {
	s := MustFromString("0110010")
	got := s.Members()
	want := []int{1, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestClosureMatchesPaperExample312(t *testing.T) {
	// Example 3.1.2: Closure∩[IC] for the running example.
	g := BuildGraph(7, paperIC())
	want := []string{
		"1111111", // universe (added by the graph)
		"1110000", "0111000", "0000111", "1000110", "0000011", "0011000",
		"0110000", "0000110",
		"1000000", "0100000", "0010000", "0001000", "0000100", "0000010", "0000001",
	}
	if len(g.Nodes) != len(want) {
		var got []string
		for _, nd := range g.Nodes {
			got = append(got, nd.Set.String())
		}
		t.Fatalf("closure has %d nodes, want %d\n got: %v", len(g.Nodes), len(want), got)
	}
	for _, w := range want {
		if g.Lookup(MustFromString(w)) == nil {
			t.Fatalf("closure is missing %s", w)
		}
	}
}

func TestFathersMatchPaperExample321(t *testing.T) {
	g := BuildGraph(7, paperIC())
	fathers := func(v string) map[string]bool {
		nd := g.Lookup(MustFromString(v))
		if nd == nil {
			t.Fatalf("missing node %s", v)
		}
		out := map[string]bool{}
		for _, f := range nd.Fathers {
			out[f.Set.String()] = true
		}
		return out
	}
	cases := map[string][]string{
		"1110000": {"1111111"},
		"0111000": {"1111111"},
		"0000111": {"1111111"},
		"1000110": {"1111111"},
		"0011000": {"0111000"},
		"0110000": {"0111000", "1110000"},
		"0000011": {"0000111"},
		"0000110": {"0000111", "1000110"},
		"0010000": {"0011000", "0110000"},
		"0001000": {"0011000"},
		"0100000": {"0110000"},
		"0000010": {"0000011", "0000110"},
		"0000001": {"0000011"},
		// Example 3.2.1 prints "F(0000100) = (1110000, 1000110)", but that
		// line is F(1000000): the sets including state 5 are 0000111 and
		// 1000110, whose intersection 0000110 is the unique minimal
		// superset of {5} — consistent with cat(0000100) = 3 in Example
		// 3.3.1.1. F(1000000) = {1110000, 1000110} matches cat(1000000)=2.
		"0000100": {"0000110"},
		"1000000": {"1110000", "1000110"},
	}
	for v, want := range cases {
		got := fathers(v)
		if len(got) != len(want) {
			t.Fatalf("F(%s) = %v, want %v", v, got, want)
		}
		for _, w := range want {
			if !got[w] {
				t.Fatalf("F(%s) missing %s (got %v)", v, w, got)
			}
		}
	}
}

func TestCategoriesMatchPaperExample3311(t *testing.T) {
	g := BuildGraph(7, paperIC())
	cases := map[string]int{
		"1110000": Cat1, "0111000": Cat1, "0000111": Cat1, "1000110": Cat1,
		"0000110": Cat2, "0110000": Cat2, "0010000": Cat2, "0000010": Cat2, "1000000": Cat2,
		"0011000": Cat3, "0000011": Cat3, "0001000": Cat3,
		"0100000": Cat3, "0000001": Cat3, "0000100": Cat3,
	}
	for v, want := range cases {
		nd := g.Lookup(MustFromString(v))
		if nd == nil {
			t.Fatalf("missing node %s", v)
		}
		if got := nd.Cat(); got != want {
			t.Fatalf("cat(%s) = %d, want %d", v, got, want)
		}
	}
	if g.Universe.Cat() != CatUniverse {
		t.Fatal("universe category wrong")
	}
}

func TestMinCubeDimPaperExample(t *testing.T) {
	// Example 3.3.2.2.1: the 3-cube fails the counting arguments, the
	// 4-cube passes them.
	g := BuildGraph(7, paperIC())
	if g.Fits(3) || !g.Fits(4) {
		t.Fatalf("Fits(3)=%v Fits(4)=%v, want false, true", g.Fits(3), g.Fits(4))
	}
	if got := g.MinCubeDim(); got != 4 {
		t.Fatalf("MinCubeDim = %d, want 4", got)
	}
}

func TestNormalize(t *testing.T) {
	ics := []Constraint{
		{Set: MustFromString("1100"), Weight: 2},
		{Set: MustFromString("1100"), Weight: 3},
		{Set: MustFromString("0110"), Weight: 4},
		{Set: MustFromString("1000"), Weight: 9}, // singleton: dropped
		{Set: MustFromString("1111"), Weight: 9}, // universe: dropped
	}
	out := Normalize(ics)
	if len(out) != 2 {
		t.Fatalf("Normalize kept %d, want 2", len(out))
	}
	if out[0].Set.String() != "1100" || out[0].Weight != 5 {
		t.Fatalf("first = %s w=%d", out[0].Set, out[0].Weight)
	}
	if out[1].Set.String() != "0110" || out[1].Weight != 4 {
		t.Fatalf("second = %s w=%d", out[1].Set, out[1].Weight)
	}
	if TotalWeight(out) != 9 {
		t.Fatalf("TotalWeight = %d", TotalWeight(out))
	}
}

func TestGraphWeightsCarried(t *testing.T) {
	ics := []Constraint{
		{Set: MustFromString("1100"), Weight: 5},
		{Set: MustFromString("0110"), Weight: 2},
	}
	g := BuildGraph(4, ics)
	if nd := g.Lookup(MustFromString("1100")); !nd.Original || nd.Weight != 5 {
		t.Fatalf("node weight/original wrong: %+v", nd)
	}
	if nd := g.Lookup(MustFromString("0100")); nd == nil || nd.Original {
		t.Fatal("intersection node should exist and not be original")
	}
}

// Property: the closure is intersection-closed.
func TestClosureIsClosed(t *testing.T) {
	f := func(a, b, c uint8) bool {
		mk := func(x uint8) Set {
			s := NewSet(8)
			for i := 0; i < 8; i++ {
				if x&(1<<uint(i)) != 0 {
					s.Add(i)
				}
			}
			return s
		}
		g := BuildGraph(8, []Constraint{{Set: mk(a | 1)}, {Set: mk(b | 2)}, {Set: mk(c | 4)}})
		for i := 0; i < len(g.Nodes); i++ {
			for j := 0; j < len(g.Nodes); j++ {
				x := g.Nodes[i].Set.Intersect(g.Nodes[j].Set)
				if !x.IsEmpty() && g.Lookup(x) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: fathers are minimal proper supersets and children mirror them.
func TestFatherChildConsistency(t *testing.T) {
	g := BuildGraph(7, paperIC())
	for _, nd := range g.Nodes {
		for _, f := range nd.Fathers {
			if !nd.Set.ProperSubsetOf(f.Set) {
				t.Fatalf("father %s does not include %s", f.Set, nd.Set)
			}
			found := false
			for _, c := range f.Children {
				if c == nd {
					found = true
				}
			}
			if !found {
				t.Fatalf("child link missing for %s -> %s", f.Set, nd.Set)
			}
			// Minimality: no closure node strictly between.
			for _, mid := range g.Nodes {
				if mid == nd || mid == f {
					continue
				}
				if nd.Set.ProperSubsetOf(mid.Set) && mid.Set.ProperSubsetOf(f.Set) {
					t.Fatalf("father %s of %s is not minimal (%s between)", f.Set, nd.Set, mid.Set)
				}
			}
		}
	}
}
