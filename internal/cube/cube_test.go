package cube

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestStructureLayout(t *testing.T) {
	s := NewStructure(2, 3, 5)
	if s.NumVars() != 3 {
		t.Fatalf("NumVars = %d, want 3", s.NumVars())
	}
	if s.Bits() != 10 {
		t.Fatalf("Bits = %d, want 10", s.Bits())
	}
	if s.Offset(0) != 0 || s.Offset(1) != 2 || s.Offset(2) != 5 {
		t.Fatalf("offsets = %d,%d,%d", s.Offset(0), s.Offset(1), s.Offset(2))
	}
	if s.Words() != 1 {
		t.Fatalf("Words = %d, want 1", s.Words())
	}
}

func TestStructureLargeLayout(t *testing.T) {
	s := NewStructure(2, 2, 121, 60)
	if s.Bits() != 185 {
		t.Fatalf("Bits = %d, want 185", s.Bits())
	}
	if s.Words() != 3 {
		t.Fatalf("Words = %d, want 3", s.Words())
	}
	c := s.NewCube()
	s.Set(c, 2, 120)
	if !s.Test(c, 2, 120) {
		t.Fatal("Set/Test round trip failed across word boundary")
	}
	if s.VarCount(c, 2) != 1 {
		t.Fatalf("VarCount = %d, want 1", s.VarCount(c, 2))
	}
}

func TestSetClearTest(t *testing.T) {
	s := NewStructure(2, 4)
	c := s.NewCube()
	s.Set(c, 1, 2)
	if !s.Test(c, 1, 2) || s.Test(c, 1, 1) {
		t.Fatal("Set/Test mismatch")
	}
	s.Clear(c, 1, 2)
	if s.Test(c, 1, 2) {
		t.Fatal("Clear failed")
	}
}

func TestFullAndEmpty(t *testing.T) {
	s := NewStructure(2, 3)
	full := s.FullCube()
	if !s.IsFull(full) || s.IsEmpty(full) {
		t.Fatal("FullCube is not full")
	}
	empty := s.NewCube()
	if !s.IsEmpty(empty) {
		t.Fatal("zero cube should be empty")
	}
	// A cube with one empty field is empty even if others are set.
	c := s.NewCube()
	s.SetAll(c, 0)
	if !s.IsEmpty(c) {
		t.Fatal("cube with an empty variable field must be empty")
	}
}

func TestIntersection(t *testing.T) {
	s := NewStructure(2, 2)
	a := s.NewCube()
	s.Set(a, 0, 0)
	s.SetAll(a, 1)
	b := s.NewCube()
	s.SetAll(b, 0)
	s.Set(b, 1, 1)
	if !s.Intersects(a, b) {
		t.Fatal("a and b should intersect")
	}
	r := s.NewCube()
	And(r, a, b)
	if !s.Test(r, 0, 0) || s.Test(r, 0, 1) || !s.Test(r, 1, 1) || s.Test(r, 1, 0) {
		t.Fatalf("intersection wrong: %s", s.String(r))
	}
	c := s.NewCube()
	s.Set(c, 0, 1)
	s.SetAll(c, 1)
	if s.Intersects(a, c) {
		t.Fatal("a and c are disjoint in variable 0")
	}
}

func TestContains(t *testing.T) {
	s := NewStructure(2, 3)
	big := s.FullCube()
	small := s.NewCube()
	s.Set(small, 0, 1)
	s.Set(small, 1, 0)
	if !Contains(big, small) {
		t.Fatal("universe contains everything")
	}
	if Contains(small, big) {
		t.Fatal("small does not contain universe")
	}
}

func TestDistanceAndConsensus(t *testing.T) {
	s := NewStructure(2, 2)
	a := s.NewCube() // 01 11
	s.Set(a, 0, 0)
	s.SetAll(a, 1)
	b := s.NewCube() // 10 11
	s.Set(b, 0, 1)
	s.SetAll(b, 1)
	if d := s.Distance(a, b); d != 1 {
		t.Fatalf("distance = %d, want 1", d)
	}
	cons := s.Consensus(a, b)
	if cons == nil {
		t.Fatal("consensus should exist at distance 1")
	}
	if !s.VarFull(cons, 0) || !s.VarFull(cons, 1) {
		t.Fatalf("consensus = %s, want full", s.String(cons))
	}
	if s.Consensus(a, a) != nil {
		t.Fatal("consensus at distance 0 must be nil")
	}
}

func TestCofactorCube(t *testing.T) {
	s := NewStructure(2, 2)
	q := s.NewCube()
	s.Set(q, 0, 0)
	s.SetAll(q, 1)
	c := s.NewCube()
	s.Set(c, 0, 0)
	s.Set(c, 1, 1)
	r := s.Cofactor(q, c)
	if r == nil {
		t.Fatal("cofactor should exist")
	}
	// q/c has variable fields q_v | ~c_v.
	if !s.VarFull(r, 1) {
		t.Fatalf("cofactor = %s", s.String(r))
	}
	d := s.NewCube()
	s.Set(d, 0, 1)
	s.SetAll(d, 1)
	if s.Cofactor(d, c) != nil {
		t.Fatal("cofactor of disjoint cubes must be nil")
	}
}

func TestMinterms(t *testing.T) {
	s := NewStructure(2, 3)
	c := s.FullCube()
	if m := s.Minterms(c); m != 6 {
		t.Fatalf("Minterms(full) = %d, want 6", m)
	}
	s.Clear(c, 1, 0)
	if m := s.Minterms(c); m != 4 {
		t.Fatalf("Minterms = %d, want 4", m)
	}
}

func TestStringRendering(t *testing.T) {
	s := NewStructure(2, 3)
	c := s.NewCube()
	s.Set(c, 0, 1)
	s.Set(c, 1, 0)
	s.Set(c, 1, 2)
	if got := s.String(c); got != "01 101" {
		t.Fatalf("String = %q", got)
	}
	if got := s.BinaryString(c); got != "1{101}" {
		t.Fatalf("BinaryString = %q", got)
	}
}

func randomCube(s *Structure, rng *rand.Rand) Cube {
	c := s.NewCube()
	for v := 0; v < s.NumVars(); v++ {
		for p := 0; p < s.Size(v); p++ {
			if rng.Intn(2) == 1 {
				s.Set(c, v, p)
			}
		}
		if s.VarEmpty(c, v) {
			s.Set(c, v, rng.Intn(s.Size(v)))
		}
	}
	return c
}

func repeatSize(n, k int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = n
	}
	return sizes
}

// refEmpty is the per-field emptiness reference: some field has no part.
func refEmpty(s *Structure, c Cube) bool {
	for v := 0; v < s.NumVars(); v++ {
		if s.VarEmpty(c, v) {
			return true
		}
	}
	return false
}

// restrictedCube returns the universe with up to two fields narrowed to
// nothing, one part or random parts, so a pair of such cubes conflicts in
// few fields and often in none.
func restrictedCube(s *Structure, rng *rand.Rand) Cube {
	c := s.FullCube()
	for k := rng.Intn(3); k > 0; k-- {
		v := rng.Intn(s.NumVars())
		s.ClearAll(c, v)
		switch rng.Intn(4) {
		case 0:
		case 1:
			s.Set(c, v, rng.Intn(s.Size(v)))
		default:
			for p := 0; p < s.Size(v); p++ {
				if rng.Intn(2) == 1 {
					s.Set(c, v, p)
				}
			}
		}
	}
	return c
}

// Property: Intersects and IsEmpty agree with the per-field VarEmpty
// reference on every layout, and the intersection is the largest cube
// contained in both operands. The layouts cover binary fields packed into
// the word mask, fields left to the per-field fallback, and both mixed
// over several words.
func TestIntersectionProperty(t *testing.T) {
	layouts := []struct {
		name  string
		sizes []int
		other []int // variables the word mask cannot cover
	}{
		{"binary", []int{2, 2, 2, 2, 2, 2, 2}, nil},
		{"binary-two-words", repeatSize(2, 40), nil},
		{"mv-only", []int{3, 5, 4, 7}, []int{0, 1, 2, 3}},
		{"mixed", []int{2, 2, 3}, []int{2}},
		{"binary-straddles-63-64", []int{63, 2, 2, 2}, []int{0, 1}},
		{"one-part-field", []int{2, 1, 2, 3, 1}, []int{1, 3, 4}},
		{"multi-word", []int{2, 2, 121, 60}, []int{2, 3}},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			s := NewStructure(l.sizes...)
			if fmt.Sprint(s.other) != fmt.Sprint(l.other) {
				t.Fatalf("fallback fields = %v, want %v", s.other, l.other)
			}
			rng := rand.New(rand.NewSource(1))
			seen := map[bool]int{}
			r := s.NewCube()
			for i := 0; i < 4000; i++ {
				var a, b Cube
				if i%2 == 0 {
					a, b = randomCube(s, rng), randomCube(s, rng)
				} else {
					a, b = restrictedCube(s, rng), restrictedCube(s, rng)
				}
				And(r, a, b)
				want := !refEmpty(s, r)
				if got := s.Intersects(a, b); got != want {
					t.Fatalf("Intersects(%s, %s) = %v, per-field reference %v", s.String(a), s.String(b), got, want)
				}
				if got := s.IsEmpty(r); got != !want {
					t.Fatalf("IsEmpty(%s) = %v, per-field reference %v", s.String(r), got, !want)
				}
				if got, ref := s.IsEmpty(a), refEmpty(s, a); got != ref {
					t.Fatalf("IsEmpty(%s) = %v, per-field reference %v", s.String(a), got, ref)
				}
				if !Contains(a, r) || !Contains(b, r) {
					t.Fatalf("a∧b = %s not contained in both operands", s.String(r))
				}
				seen[want]++
			}
			if seen[true] == 0 || seen[false] == 0 {
				t.Fatalf("draws never exercised both outcomes: %v", seen)
			}
		})
	}
}

// Property: Contains agrees with minterm subset semantics on small spaces.
func TestContainsAgreesWithMinterms(t *testing.T) {
	s := NewStructure(2, 3)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := randomCube(s, rng), randomCube(s, rng)
		cover := NewCover(s)
		cover.Add(a)
		inA := map[string]bool{}
		cover.Minterms(func(m Cube) { inA[m.Key()] = true })
		coverB := NewCover(s)
		coverB.Add(b)
		subset := true
		coverB.Minterms(func(m Cube) {
			if !inA[m.Key()] {
				subset = false
			}
		})
		if got := Contains(a, b); got != subset {
			t.Fatalf("Contains(%s, %s) = %v, minterm subset = %v", s.String(a), s.String(b), got, subset)
		}
	}
}
