package espresso

import (
	"math/rand"
	"sort"
	"testing"

	"nova/internal/cube"
)

// Per-pass identity suite: EXPAND refuses a raise when the raised cube
// would meet the off-set, which MinimizeWith computes once per call, and
// REDUCE checks each slice against the cubes that meet the reduced cube.
// Both must decide exactly as the whole-cube tautology checks against the
// full cover do. refExpand and refReduce below are those whole-cube
// passes, kept as references; the suite runs the minimization loop on
// random covers and requires every EXPAND and REDUCE to return the
// reference's cover bit for bit.

// refExpand is EXPAND with the whole-cube raise check: each raised cube
// is checked against every cube of on∪dc.
func refExpand(f, dc *cube.Cover, a *cube.Arena) {
	s := f.S
	all := f.Copy().Append(dc)
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return f.Cubes[order[x]].PopCount() > f.Cubes[order[y]].PopCount()
	})
	weights := make([]int, s.Bits())
	for _, c := range f.Cubes {
		for v := 0; v < s.NumVars(); v++ {
			for p := 0; p < s.Size(v); p++ {
				if s.Test(c, v, p) {
					weights[s.Offset(v)+p]++
				}
			}
		}
	}
	covered := make([]bool, len(f.Cubes))
	for _, i := range order {
		if covered[i] {
			continue
		}
		c := f.Cubes[i]
		var cands []raiseCand
		for v := 0; v < s.NumVars(); v++ {
			for p := 0; p < s.Size(v); p++ {
				if !s.Test(c, v, p) {
					cands = append(cands, raiseCand{v, p, weights[s.Offset(v)+p]})
				}
			}
		}
		sort.SliceStable(cands, func(x, y int) bool { return cands[x].w > cands[y].w })
		for _, cd := range cands {
			s.Set(c, cd.v, cd.p)
			if !all.ContainsCube(c) && !all.CoversCubeWith(a, c) {
				s.Clear(c, cd.v, cd.p)
			}
		}
		for _, j := range order {
			if j != i && !covered[j] && cube.Contains(c, f.Cubes[j]) {
				covered[j] = true
			}
		}
	}
	var kept []cube.Cube
	for i, c := range f.Cubes {
		if !covered[i] {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// refReduce is REDUCE with every slice checked against all the other
// cubes of f and every cube of dc.
func refReduce(f, dc *cube.Cover, a *cube.Arena) {
	s := f.S
	order := make([]int, len(f.Cubes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return f.Cubes[order[x]].PopCount() > f.Cubes[order[y]].PopCount()
	})
	for _, i := range order {
		c := f.Cubes[i]
		rest := f.Without(i).Append(dc)
		for v := 0; v < s.NumVars(); v++ {
			for p := 0; p < s.Size(v); p++ {
				if !s.Test(c, v, p) || s.VarCount(c, v) < 2 {
					continue
				}
				slice := c.Copy()
				s.ClearAll(slice, v)
				s.Set(slice, v, p)
				if rest.CoversCubeWith(a, slice) {
					s.Clear(c, v, p)
				}
			}
		}
	}
}

// passLayouts are the seven layouts of the cube package's
// TestIntersectionProperty: binary fields in one and in two words, only
// multiple-valued fields, a mix, a field straddling bits 63/64, one-part
// fields, and a 121-part field over several words.
var passLayouts = [][]int{
	{2, 2, 2, 2, 2, 2, 2},
	repeatSizes(2, 40),
	{3, 5, 4, 7},
	{2, 2, 3},
	{63, 2, 2, 2},
	{2, 1, 2, 3, 1},
	{2, 2, 121, 60},
}

func repeatSizes(n, k int) []int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = n
	}
	return sizes
}

// restrictedRefCube returns the universe with up to three fields narrowed
// to nothing, one part or random parts: large cubes that conflict in few
// fields, so raises get accepted and distance-one neighbours matter.
func restrictedRefCube(rng *rand.Rand, s *cube.Structure) cube.Cube {
	c := s.FullCube()
	for k := rng.Intn(4); k > 0; k-- {
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

// randPassCover draws up to n cubes, each random or restricted as mode
// says: 0 random, 1 restricted, 2 either.
func randPassCover(rng *rand.Rand, s *cube.Structure, n, mode int) *cube.Cover {
	f := cube.NewCover(s)
	for i := rng.Intn(n + 1); i > 0; i-- {
		if mode == 0 || mode == 2 && rng.Intn(2) == 0 {
			f.Add(randRefCube(rng, s))
		} else {
			f.Add(restrictedRefCube(rng, s))
		}
	}
	return f
}

func sameCover(f, g *cube.Cover) bool {
	if f.Len() != g.Len() {
		return false
	}
	for i := range f.Cubes {
		if !f.Cubes[i].Equal(g.Cubes[i]) {
			return false
		}
	}
	return true
}

// TestPassesMatchReference draws 3000 (on, dc) pairs over the seven
// layouts and runs EXPAND, IRREDUNDANT and three REDUCE / EXPAND /
// IRREDUNDANT rounds on each, comparing every EXPAND and REDUCE with the
// reference pass on a copy of its input. Every EXPAND takes the one
// off-set computed from on∪dc before the first, as in MinimizeWith.
func TestPassesMatchReference(t *testing.T) {
	const pairs = 3000
	rng := rand.New(rand.NewSource(20261017))
	changed := map[string]int{}
	for i := 0; i < pairs; i++ {
		s := cube.NewStructure(passLayouts[i%len(passLayouts)]...)
		mode := rng.Intn(3)
		on := randPassCover(rng, s, 8, mode)
		dc := randPassCover(rng, s, 3, mode)
		f := on.Copy()
		f.SingleCubeContainment()
		a := cube.GetArena(s)
		off := offSetWith(f, dc, a)
		expand := func(f, dc *cube.Cover, a *cube.Arena) { expandWith(f, off, a) }
		check := func(name string, pass, ref func(f, dc *cube.Cover, a *cube.Arena)) {
			t.Helper()
			in, want := f.Copy(), f.Copy()
			pass(f, dc, a)
			ref(want, dc, a)
			if !sameCover(f, want) {
				t.Fatalf("pair %d, %s over %v:\ninput:\n%sdc:\n%sgot:\n%swant:\n%s",
					i, name, passLayouts[i%len(passLayouts)], in, dc, f, want)
			}
			if !sameCover(f, in) {
				changed[name]++
			}
		}
		check("expand", expand, refExpand)
		irredundantWith(f, dc, a)
		for round := 0; round < 3; round++ {
			check("reduce", reduceWith, refReduce)
			check("expand", expand, refExpand)
			irredundantWith(f, dc, a)
		}
		a.Release(off)
		cube.PutArena(a)
	}
	t.Logf("covers changed by a pass: %v", changed)
	// The draws must make both passes do work, or agreement proves little.
	if changed["expand"] < pairs/4 || changed["reduce"] < pairs/10 {
		t.Fatalf("passes changed too few covers: %v", changed)
	}
}

// enumerableLayouts are the layouts of the cube package's
// TestTautologyOracle, small enough to enumerate every minterm: binary
// fields, multiple-valued fields only, both mixed, fields of one part, a
// layout over two words, (2,2,2) and (3,3).
var enumerableLayouts = [][]int{
	{2, 2, 2, 2, 2},
	{3, 4, 3},
	{2, 3, 2, 4},
	{2, 1, 3, 1, 2},
	{2, 3, 61},
	{2, 2, 2},
	{3, 3},
}

// mintermsOf returns, for every minterm of the space in enumeration
// order, whether some cube of f or of g covers it.
func mintermsOf(f, g *cube.Cover) []bool {
	var in []bool
	eachMinterm(f.S, func(m cube.Cube) {
		in = append(in, f.ContainsCube(m) || g.ContainsCube(m))
	})
	return in
}

// TestPassesKeepOnDcSet checks the premise that lets one off-set serve a
// whole MinimizeWith call: along its pass sequence (EXPAND, IRREDUNDANT,
// then rounds of REDUCE, EXPAND and IRREDUNDANT), the minterms of f∪dc
// after every pass are exactly those of on∪dc.
func TestPassesKeepOnDcSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	changed := map[string]int{}
	for _, sizes := range enumerableLayouts {
		s := cube.NewStructure(sizes...)
		a := cube.GetArena(s)
		for i := 0; i < 1000; i++ {
			mode := rng.Intn(3)
			on := randPassCover(rng, s, 8, mode)
			dc := randPassCover(rng, s, 3, mode)
			want := mintermsOf(on, dc)
			f := on.Copy()
			f.SingleCubeContainment()
			dropEmpty(f)
			off := offSetWith(f, dc, a)
			pass := func(name string, run func()) {
				t.Helper()
				in := f.Copy()
				run()
				got := mintermsOf(f, dc)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%v draw %d: %s changed the minterms of f∪dc\ninput:\n%sdc:\n%sgot:\n%s",
							sizes, i, name, in, dc, f)
					}
				}
				if !sameCover(f, in) {
					changed[name]++
				}
			}
			pass("expand", func() { expandWith(f, off, a) })
			pass("irredundant", func() { irredundantWith(f, dc, a) })
			for round := 0; round < 3; round++ {
				pass("reduce", func() { reduceWith(f, dc, a) })
				pass("expand", func() { expandWith(f, off, a) })
				pass("irredundant", func() { irredundantWith(f, dc, a) })
			}
			a.Release(off)
		}
		cube.PutArena(a)
	}
	t.Logf("covers changed by a pass: %v", changed)
	for _, name := range []string{"expand", "irredundant", "reduce"} {
		if changed[name] == 0 {
			t.Fatalf("%s never changed a cover: %v", name, changed)
		}
	}
}
