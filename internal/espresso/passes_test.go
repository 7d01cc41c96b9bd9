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

// TestPassesMatchReference draws 3000 (on, dc) pairs over the seven
// layouts and runs EXPAND, IRREDUNDANT and three REDUCE / EXPAND /
// IRREDUNDANT rounds on each, comparing every EXPAND and REDUCE with the
// reference pass on a copy of its input. Every EXPAND takes the one
// off-set computed from on∪dc before the first, and the cubes the REDUCE
// before it left unchanged, as in MinimizeWith.
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
		a := cube.NewArena(s)
		off := offSetWith(f, dc, a)
		var unchanged []bool
		reduce := func(f, dc *cube.Cover, a *cube.Arena) {
			unchanged = reduceWith(f, dc, a)
			for _, u := range unchanged {
				if u {
					changed["cubes REDUCE kept"]++
				}
			}
		}
		expand := func(f, dc *cube.Cover, a *cube.Arena) { expandWith(f, off, unchanged, a) }
		check := func(name string, pass, ref func(f, dc *cube.Cover, a *cube.Arena)) {
			t.Helper()
			in, want := f.Copy(), f.Copy()
			pass(f, dc, a)
			ref(want, dc, a)
			if !f.Equal(want) {
				t.Fatalf("pair %d, %s over %v:\ninput:\n%sdc:\n%sgot:\n%swant:\n%s",
					i, name, passLayouts[i%len(passLayouts)], in, dc, f, want)
			}
			if !f.Equal(in) {
				changed[name]++
			}
		}
		check("expand", expand, refExpand)
		irredundantWith(f, dc, a)
		for round := 0; round < 3; round++ {
			check("reduce", reduce, refReduce)
			check("expand", expand, refExpand)
			irredundantWith(f, dc, a)
		}
		a.Release(off)
	}
	t.Logf("covers changed by a pass: %v", changed)
	// The draws must make both passes do work and let EXPAND skip cubes,
	// or agreement proves little.
	if changed["expand"] < pairs/4 || changed["reduce"] < pairs/10 || changed["cubes REDUCE kept"] < pairs {
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
		a := cube.NewArena(s)
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
				if !f.Equal(in) {
					changed[name]++
				}
			}
			pass("expand", func() { expandWith(f, off, nil, a) })
			pass("irredundant", func() { irredundantWith(f, dc, a) })
			for round := 0; round < 3; round++ {
				pass("reduce", func() { reduceWith(f, dc, a) })
				pass("expand", func() { expandWith(f, off, nil, a) })
				pass("irredundant", func() { irredundantWith(f, dc, a) })
			}
			a.Release(off)
		}
	}
	t.Logf("covers changed by a pass: %v", changed)
	for _, name := range []string{"expand", "irredundant", "reduce"} {
		if changed[name] == 0 {
			t.Fatalf("%s never changed a cover: %v", name, changed)
		}
	}
}

// TestReduceCubeOracle checks the one-step REDUCE of a cube by minterm
// enumeration on the enumerable layouts: reduceCube must lower c to the
// supercube of the minterms of c that rest leaves uncovered and, when
// there are none (c ⊆ rest, empty cubes included), keep the highest set
// part of each variable, as the one-part-at-a-time REDUCE does. One draw
// in four adds a cube containing c to rest, so c ⊆ rest comes up often.
func TestReduceCubeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	cases := map[string]int{}
	for _, sizes := range enumerableLayouts {
		s := cube.NewStructure(sizes...)
		a := cube.NewArena(s)
		low := s.NewCube()
		for i := 0; i < 1000; i++ {
			mode := rng.Intn(3)
			c := randRefCube(rng, s)
			if mode == 1 || mode == 2 && rng.Intn(2) == 0 {
				c = restrictedRefCube(rng, s)
			}
			rest := randPassCover(rng, s, 8, mode)
			if rng.Intn(4) == 0 {
				up := c.Copy()
				for v := 0; v < s.NumVars(); v++ {
					s.Set(up, v, rng.Intn(s.Size(v)))
				}
				rest.Add(up)
			}
			want := s.NewCube()
			uncovered := false
			eachMinterm(s, func(m cube.Cube) {
				if cube.Contains(c, m) && !rest.ContainsCube(m) {
					cube.Or(want, want, m)
					uncovered = true
				}
			})
			if uncovered {
				cases["uncovered"]++
			} else {
				cases["c ⊆ rest"]++
				for v := 0; v < s.NumVars(); v++ {
					for p := s.Size(v) - 1; p >= 0; p-- {
						if s.Test(c, v, p) {
							s.Set(want, v, p)
							break
						}
					}
				}
			}
			got := c.Copy()
			same := reduceCube(rest, got, low, a)
			if !got.Equal(want) || same != want.Equal(c) {
				t.Fatalf("%v draw %d: reduced %s to %s (unchanged %v), want %s\nrest:\n%s",
					sizes, i, s.String(c), s.String(got), same, s.String(want), rest)
			}
			if !same {
				cases["lowered"]++
			}
		}
	}
	t.Logf("cases: %v", cases)
	if cases["c ⊆ rest"] < 500 || cases["uncovered"] < 500 || cases["lowered"] < 500 {
		t.Fatalf("too few draws of some case: %v", cases)
	}
}

// fullLoop is the minimization loop of MinimizeWith with every EXPAND
// raising every cube and no early stop: each round runs REDUCE, EXPAND
// and IRREDUNDANT, and the loop ends on the first round that does not
// lower the cost. It tallies, per round, the cubes REDUCE left unchanged,
// whether EXPAND gave back the best cover and whether the round lowered
// the cost.
func fullLoop(f, dc, off *cube.Cover, a *cube.Arena, tally map[string]int) *cube.Cover {
	expandWith(f, off, nil, a)
	irredundantWith(f, dc, a)
	best := f.Copy()
	for iter := 0; iter < maxIterations; iter++ {
		for _, u := range reduceWith(f, dc, a) {
			if u {
				tally["cubes left unchanged"]++
			}
		}
		expandWith(f, off, nil, a)
		if f.Equal(best) {
			tally["EXPAND gave back best"]++
		}
		irredundantWith(f, dc, a)
		if cost(f) >= cost(best) {
			break
		}
		tally["rounds lowered the cost"]++
		best = f.Copy()
	}
	return best
}

// FullLoopMinimize is MinimizeWith with fullLoop for its loop, for the
// external test that runs both on the suite machines' covers. It adds
// fullLoop's tallies to tally.
func FullLoopMinimize(on, dc *cube.Cover, tally map[string]int) *cube.Cover {
	a := cube.NewArena(on.S)
	f := on.Copy()
	f.SingleCubeContainment()
	dropEmpty(f)
	off := offSetWith(f, dc, a)
	best := fullLoop(f, dc, off, a, tally)
	a.Release(off)
	return best
}

// TestMinimizeMatchesFullLoop requires MinimizeWith, whose EXPAND skips
// the cubes REDUCE left unchanged and whose rounds stop once EXPAND gives
// back the best cover, to return fullLoop's cover bit for bit on random
// functions over the pass and enumerable layouts.
func TestMinimizeMatchesFullLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20261021))
	layouts := append(append([][]int(nil), passLayouts...), enumerableLayouts...)
	tally := map[string]int{}
	for i := 0; i < 3000; i++ {
		s := cube.NewStructure(layouts[i%len(layouts)]...)
		mode := rng.Intn(3)
		on := randPassCover(rng, s, 10, mode)
		dc := randPassCover(rng, s, 3, mode)
		a := cube.NewArena(s)
		f := on.Copy()
		f.SingleCubeContainment()
		dropEmpty(f)
		off := offSetWith(f, dc, a)
		want := fullLoop(f, dc, off, a, tally)
		a.Release(off)
		got := MinimizeWith(on, dc, Options{}, a)
		if !got.Equal(want) {
			t.Fatalf("draw %d over %v:\non:\n%sdc:\n%sgot:\n%swant:\n%s",
				i, layouts[i%len(layouts)], on, dc, got, want)
		}
	}
	t.Logf("over 3000 functions: %v", tally)
	if tally["cubes left unchanged"] < 1000 || tally["EXPAND gave back best"] < 1000 || tally["rounds lowered the cost"] < 10 {
		t.Fatalf("the skip, the early stop or a second round came up too rarely: %v", tally)
	}
}
