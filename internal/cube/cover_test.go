package cube

import (
	"maps"
	"math/rand"
	"testing"
)

// parse builds a cube from per-variable part strings like "01", "110".
func parse(s *Structure, fields ...string) Cube {
	c := s.NewCube()
	for v, f := range fields {
		for p, ch := range f {
			if ch == '1' {
				s.Set(c, v, p)
			}
		}
	}
	return c
}

func TestTautologySimple(t *testing.T) {
	s := NewStructure(2)
	f := NewCover(s)
	f.Add(parse(s, "01"))
	f.Add(parse(s, "10"))
	if !f.Tautology() {
		t.Fatal("x + x' is a tautology")
	}
	g := NewCover(s)
	g.Add(parse(s, "01"))
	if g.Tautology() {
		t.Fatal("a single literal is not a tautology")
	}
}

func TestTautologyEmptyCover(t *testing.T) {
	s := NewStructure(2, 2)
	if NewCover(s).Tautology() {
		t.Fatal("empty cover must not be a tautology")
	}
}

func TestTautologyMV(t *testing.T) {
	s := NewStructure(3, 2)
	f := NewCover(s)
	f.Add(parse(s, "110", "11"))
	f.Add(parse(s, "001", "10"))
	f.Add(parse(s, "001", "01"))
	if !f.Tautology() {
		t.Fatal("cover partitions the space: tautology expected")
	}
	g := NewCover(s)
	g.Add(parse(s, "110", "11"))
	g.Add(parse(s, "001", "10"))
	if g.Tautology() {
		t.Fatal("minterm (value2, 1) is uncovered")
	}
}

func TestCoversCube(t *testing.T) {
	s := NewStructure(2, 2)
	f := NewCover(s)
	f.Add(parse(s, "01", "11"))
	f.Add(parse(s, "10", "01"))
	if !f.CoversCube(parse(s, "01", "10")) {
		t.Fatal("cube inside first cube should be covered")
	}
	if f.CoversCube(parse(s, "10", "10")) {
		t.Fatal("minterm (1, 0) is not covered")
	}
	// The union covers (x=0, anything) ∪ (x=1, y=1): the cube (-, 1) is
	// covered by the union though by neither cube alone.
	if !f.CoversCube(parse(s, "11", "01")) {
		t.Fatal("cube covered by the union should be detected")
	}
}

func TestComplementSingleCube(t *testing.T) {
	s := NewStructure(2, 2)
	f := NewCover(s)
	f.Add(parse(s, "01", "01"))
	comp := f.Complement()
	// Complement of a single minterm in a 2x2 space covers 3 minterms.
	total := 0
	comp.Minterms(func(Cube) { total++ })
	if total != 3 {
		t.Fatalf("complement covers %d minterms, want 3", total)
	}
	// Complement and original must be disjoint and jointly exhaustive.
	if !f.Append(comp).Tautology() {
		t.Fatal("f + f' must be a tautology")
	}
	for _, c := range comp.Cubes {
		if s.Intersects(c, f.Cubes[0]) {
			t.Fatal("complement intersects the function")
		}
	}
}

func TestComplementUniverse(t *testing.T) {
	s := NewStructure(2, 3)
	f := NewCover(s)
	f.Add(s.FullCube())
	if comp := f.Complement(); comp.Len() != 0 {
		t.Fatalf("complement of universe has %d cubes, want 0", comp.Len())
	}
	empty := NewCover(s)
	comp := empty.Complement()
	if comp.Len() != 1 || !s.IsFull(comp.Cubes[0]) {
		t.Fatal("complement of empty cover must be the universe")
	}
}

func TestComplementRandomized(t *testing.T) {
	s := NewStructure(2, 2, 3)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		f := NewCover(s)
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			f.Add(randomCube(s, rng))
		}
		comp := f.Complement()
		if !f.Append(comp).Tautology() {
			t.Fatalf("trial %d: f + f' is not a tautology\nf:\n%scomp:\n%s", trial, f, comp)
		}
		for _, c := range comp.Cubes {
			for _, q := range f.Cubes {
				r := s.NewCube()
				And(r, c, q)
				if !s.IsEmpty(r) {
					t.Fatalf("trial %d: complement overlaps function", trial)
				}
			}
		}
	}
}

func TestSingleCubeContainment(t *testing.T) {
	s := NewStructure(2, 2)
	f := NewCover(s)
	f.Add(parse(s, "11", "11"))
	f.Add(parse(s, "01", "01"))
	f.Add(parse(s, "01", "01")) // duplicate
	f.SingleCubeContainment()
	if f.Len() != 1 {
		t.Fatalf("SCC left %d cubes, want 1", f.Len())
	}
	if !s.IsFull(f.Cubes[0]) {
		t.Fatal("SCC kept the wrong cube")
	}
}

func TestCofactorCoverTautologyRelation(t *testing.T) {
	// F covers cube c iff F/c is a tautology; cross-check on random data
	// against explicit minterm enumeration.
	s := NewStructure(2, 2, 2)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		f := NewCover(s)
		for i := 0; i < 1+rng.Intn(4); i++ {
			f.Add(randomCube(s, rng))
		}
		c := randomCube(s, rng)
		covered := map[string]bool{}
		f.Minterms(func(m Cube) { covered[m.Key()] = true })
		want := true
		sel := NewCover(s)
		sel.Add(c)
		sel.Minterms(func(m Cube) {
			if !covered[m.Key()] {
				want = false
			}
		})
		if got := f.CoversCube(c); got != want {
			t.Fatalf("trial %d: CoversCube = %v, want %v\nF:\n%sc: %s", trial, got, want, f, s.String(c))
		}
	}
}

func TestWithout(t *testing.T) {
	s := NewStructure(2)
	f := NewCover(s)
	f.Add(parse(s, "01"))
	f.Add(parse(s, "10"))
	f.Add(parse(s, "11"))
	g := f.Without(1)
	if g.Len() != 2 || f.Len() != 3 {
		t.Fatalf("Without: got %d/%d cubes", g.Len(), f.Len())
	}
	if !g.Cubes[0].Equal(f.Cubes[0]) || !g.Cubes[1].Equal(f.Cubes[2]) {
		t.Fatal("Without removed the wrong cube")
	}
}

// tautologyLayouts are small enough to enumerate every minterm: binary
// fields, multiple-valued fields only, both mixed, fields of one part, a
// layout over two words, and (2,2,2) and (3,3), which both fit one word
// so the same words are a cover of each.
var tautologyLayouts = []struct {
	name  string
	sizes []int
}{
	{"binary", []int{2, 2, 2, 2, 2}},
	{"mv-only", []int{3, 4, 3}},
	{"mixed", []int{2, 3, 2, 4}},
	{"one-part-field", []int{2, 1, 3, 1, 2}},
	{"two-words", []int{2, 3, 61}},
	{"2-2-2", []int{2, 2, 2}},
	{"3-3", []int{3, 3}},
}

// carve narrows c so that it no longer contains minterm m, by clearing
// m's part in one field of c that holds other parts too. It reports false
// when c is m itself, which nothing narrows without emptying it.
func carve(s *Structure, c, m Cube, rng *rand.Rand) bool {
	if !Contains(c, m) {
		return true
	}
	var wide []int
	for v := 0; v < s.NumVars(); v++ {
		if s.VarCount(c, v) > 1 {
			wide = append(wide, v)
		}
	}
	if len(wide) == 0 {
		return false
	}
	v := wide[rng.Intn(len(wide))]
	s.Clear(c, v, s.VarParts(m, v)[0])
	return true
}

// tautologyCase returns a random cover of 4 to 15 cubes of s. When taut
// is set it is a tautology by construction: the universe split into
// disjoint cubes, some of them widened, plus copies of them and random
// cubes. Otherwise up to three random minterms are then carved out of
// every cube that holds them, so the cover misses each of them.
func tautologyCase(s *Structure, taut bool, rng *rand.Rand) *Cover {
	n := 4 + rng.Intn(12)
	cubes := []Cube{s.FullCube()}
	for tries := 0; len(cubes) < n && tries < 100; tries++ {
		c := cubes[rng.Intn(len(cubes))]
		v := rng.Intn(s.NumVars())
		parts := s.VarParts(c, v)
		if len(parts) < 2 {
			continue
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		d := c.Copy()
		cut := 1 + rng.Intn(len(parts)-1)
		for _, p := range parts[:cut] {
			s.Clear(d, v, p)
		}
		for _, p := range parts[cut:] {
			s.Clear(c, v, p)
		}
		cubes = append(cubes, d)
	}
	for _, c := range cubes {
		if rng.Intn(3) == 0 {
			v := rng.Intn(s.NumVars())
			s.Set(c, v, rng.Intn(s.Size(v)))
		}
	}
	for len(cubes) < n {
		if rng.Intn(3) == 0 {
			cubes = append(cubes, cubes[rng.Intn(len(cubes))].Copy())
		} else {
			cubes = append(cubes, randomCube(s, rng))
		}
	}
	if !taut {
		holes := make([]Cube, 1+rng.Intn(3))
		for i := range holes {
			holes[i] = s.NewCube()
			for v := 0; v < s.NumVars(); v++ {
				s.Set(holes[i], v, rng.Intn(s.Size(v)))
			}
		}
		carveAll := func(cs []Cube) []Cube {
			kept := cs[:0]
		next:
			for _, c := range cs {
				for _, m := range holes {
					if !carve(s, c, m, rng) {
						continue next
					}
				}
				kept = append(kept, c)
			}
			return kept
		}
		cubes = carveAll(cubes)
		for len(cubes) < 4 {
			cubes = append(cubes, carveAll([]Cube{randomCube(s, rng)})...)
		}
	}
	rng.Shuffle(len(cubes), func(i, j int) { cubes[i], cubes[j] = cubes[j], cubes[i] })
	return coverOf(s, cubes...)
}

// coverOf returns the cover of the given cubes.
func coverOf(s *Structure, cs ...Cube) *Cover {
	f := NewCover(s)
	for _, c := range cs {
		f.Add(c)
	}
	return f
}

// mintermSet enumerates a cover's minterms as a key set.
func mintermSet(f *Cover) map[string]bool {
	out := map[string]bool{}
	f.Minterms(func(m Cube) { out[m.Key()] = true })
	return out
}

// TestSharpAgainstComplement checks that Complement(f) is the universe
// sharp f, taken here as the universe's minterms less those of f.
func TestSharpAgainstComplement(t *testing.T) {
	s := NewStructure(2, 3)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		f := coverOf(s, randomCube(s, rng), randomCube(s, rng))
		u := NewCover(s)
		u.Add(s.FullCube())
		on := mintermSet(f)
		viaSharp := map[string]bool{}
		for k := range mintermSet(u) {
			if !on[k] {
				viaSharp[k] = true
			}
		}
		if viaComp := mintermSet(f.Complement()); !maps.Equal(viaSharp, viaComp) {
			t.Fatalf("trial %d: sharp and complement disagree", trial)
		}
	}
}

// TestTautologyOracle checks TautologyWith and ComplementWith against
// minterm enumeration on random covers of every tautologyLayouts layout,
// tautologies and non-tautologies in turn, through one arena per layout
// as the minimizer holds one. The four words below are fixed inputs:
// under (2,2,2) they leave x0=x1=1, x2=0 uncovered, and under (3,3) they
// cover every minterm.
func TestTautologyOracle(t *testing.T) {
	s222 := NewStructure(2, 2, 2)
	fixed := []Cube{
		parse(s222, "10", "10", "10"),
		parse(s222, "01", "10", "10"),
		parse(s222, "10", "01", "10"),
		parse(s222, "11", "11", "01"),
	}
	fixedTaut := map[string]bool{"2-2-2": false, "3-3": true}
	for _, l := range tautologyLayouts {
		t.Run(l.name, func(t *testing.T) {
			s := NewStructure(l.sizes...)
			space := 1
			for _, n := range l.sizes {
				space *= n
			}
			a := NewArena(s)
			rng := rand.New(rand.NewSource(3))
			check := func(f *Cover) bool {
				t.Helper()
				on := mintermSet(f)
				want := len(on) == space
				if got := f.TautologyWith(a); got != want {
					t.Fatalf("TautologyWith = %v, enumeration %v\nF:\n%s", got, want, f)
				}
				comp := mintermSet(f.ComplementWith(a))
				if len(comp)+len(on) != space {
					t.Fatalf("complement spans %d minterms, want %d\nF:\n%s", len(comp), space-len(on), f)
				}
				for k := range comp {
					if on[k] {
						t.Fatalf("complement meets F\nF:\n%s", f)
					}
				}
				return want
			}
			if want, ok := fixedTaut[l.name]; ok {
				f := NewCover(s)
				for _, c := range fixed {
					f.Add(c.Copy())
				}
				if got := check(f); got != want {
					t.Fatalf("fixed cover: tautology = %v, want %v", got, want)
				}
			}
			for i := 0; i < 600; i++ {
				taut := i%2 == 0
				f := tautologyCase(s, taut, rng)
				if n := f.Len(); n < 4 || n > 15 {
					t.Fatalf("generator returned %d cubes, want 4 to 15", n)
				}
				if got := check(f); got != taut {
					t.Fatalf("generator built tautology = %v, enumeration says %v\nF:\n%s", taut, got, f)
				}
			}
		})
	}
}

// refPruneDominatedRows is pruneDominatedRows without the set-part
// filter: every pair gets the containment test.
func refPruneDominatedRows(g *Cover) {
	cs := g.Cubes
	kept := cs[:0]
	for i, ci := range cs {
		dominated := false
		for j, cj := range cs {
			if i == j || cj == nil {
				continue
			}
			if Contains(cj, ci) && (j < i || !Contains(ci, cj)) {
				dominated = true
				break
			}
		}
		if dominated {
			cs[i] = nil
		} else {
			kept = append(kept, ci)
		}
	}
	g.Cubes = kept
}

// Property: pruneDominatedRows keeps the cubes the unfiltered pairwise
// test keeps, in the same order, on covers with repeated and nested
// cubes over every property layout.
func TestPruneDominatedRowsProperty(t *testing.T) {
	for _, l := range propertyLayouts {
		s := NewStructure(l.sizes...)
		rng := rand.New(rand.NewSource(1))
		a := NewArena(s)
		pruned := 0
		for i := 0; i < 2000; i++ {
			g := NewCover(s)
			for k := rng.Intn(10); k > 0; k-- {
				switch rng.Intn(4) {
				case 0:
					g.Add(randomCube(s, rng))
				case 1:
					g.Add(restrictedCube(s, rng))
				default:
					if g.Len() > 0 {
						g.Add(g.Cubes[rng.Intn(g.Len())].Copy()) // repeat, or nest below
						if rng.Intn(2) == 0 {
							c := g.Cubes[g.Len()-1]
							v := rng.Intn(s.NumVars())
							s.ClearAll(c, v)
							s.Set(c, v, rng.Intn(s.Size(v)))
						}
					}
				}
			}
			want := g.Copy()
			refPruneDominatedRows(want)
			got := g.Copy()
			got.pruneDominatedRows(a)
			if !got.Equal(want) {
				t.Fatalf("%s: pruned\n%sto\n%swant\n%s", l.name, g, got, want)
			}
			pruned += g.Len() - got.Len()
		}
		if pruned == 0 {
			t.Fatalf("%s: no draw had a dominated row", l.name)
		}
	}
}
