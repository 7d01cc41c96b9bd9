package espresso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nova/internal/cube"
)

// Differential suite: the heuristic minimizer is checked, on a large batch
// of random small multiple-valued functions, against an independent
// truth-table reference (pure minterm enumeration with single-cube
// containment only — none of the unate-recursion machinery under test) and
// against the exact Quine-McCluskey-style minimizer of exact.go. A
// function is kept small (total parts <= 10), so its minterm space is
// enumerable in microseconds.

// refFunc is one randomly drawn function: structure, on-set, don't-cares.
type refFunc struct {
	s      *cube.Structure
	on, dc *cube.Cover
}

// randRefFunc draws a random function with 2-3 variables of 2-4 parts
// each, at most 10 parts total.
func randRefFunc(rng *rand.Rand) refFunc {
	for {
		nv := 2 + rng.Intn(2)
		sizes := make([]int, nv)
		total := 0
		for i := range sizes {
			sizes[i] = 2 + rng.Intn(3)
			total += sizes[i]
		}
		if total > 10 {
			continue
		}
		s := cube.NewStructure(sizes...)
		on := cube.NewCover(s)
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			on.Add(randRefCube(rng, s))
		}
		dc := cube.NewCover(s)
		for i, n := 0, rng.Intn(3); i < n; i++ {
			dc.Add(randRefCube(rng, s))
		}
		return refFunc{s, on, dc}
	}
}

// randRefCube draws a non-empty cube: each part set with probability 1/2,
// every variable forced to keep at least one part.
func randRefCube(rng *rand.Rand, s *cube.Structure) cube.Cube {
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

// eachMinterm enumerates every minterm of the whole space (not just a
// cover's) and calls fn with a reusable minterm cube.
func eachMinterm(s *cube.Structure, fn func(cube.Cube)) {
	m := s.NewCube()
	var rec func(v int)
	rec = func(v int) {
		if v == s.NumVars() {
			fn(m)
			return
		}
		for p := 0; p < s.Size(v); p++ {
			s.Set(m, v, p)
			rec(v + 1)
			s.Clear(m, v, p)
		}
	}
	rec(0)
}

// checkAgainstReference verifies one minimization result by truth table:
//
//  1. equivalence — min covers every on-minterm, and every minterm of min
//     is an on- or dc-minterm (min ⊆ on∪dc);
//  2. irredundancy — every cube of min owns at least one on-minterm that
//     no other cube of min and no dc cube covers... i.e. dropping any cube
//     changes the function.
//
// It reports the first violated property, or "" when min passes.
func checkAgainstReference(f refFunc, min *cube.Cover) string {
	bad := ""
	owners := make([]int, len(min.Cubes)) // on-minterms privately owned
	eachMinterm(f.s, func(m cube.Cube) {
		if bad != "" {
			return
		}
		isOn := f.on.ContainsCube(m)
		isDc := f.dc.ContainsCube(m)
		inMin := false
		holder, holders := -1, 0
		for i, c := range min.Cubes {
			if cube.Contains(c, m) {
				inMin = true
				holder = i
				holders++
			}
		}
		switch {
		case isOn && !isDc && !inMin:
			// A care on-minterm must survive; on∩dc minterms are free
			// (the don't-care set dominates, matching the minimizer's
			// convention for overlapping specifications).
			bad = "on-minterm " + f.s.String(m) + " not covered by the minimized cover"
		case inMin && !isOn && !isDc:
			bad = "minimized cover asserts off-minterm " + f.s.String(m)
		}
		if isOn && !isDc && holders == 1 {
			owners[holder]++
		}
	})
	if bad != "" {
		return bad
	}
	for i, n := range owners {
		if n == 0 {
			return "cube " + f.s.String(min.Cubes[i]) + " is redundant (owns no private on-minterm)"
		}
	}
	return ""
}

// minimizeRef runs the minimizer with the settings the encoder uses.
func minimizeRef(f refFunc) *cube.Cover {
	return Minimize(f.on, f.dc, Options{})
}

// TestDifferentialReference sweeps >= 1000 random functions (reduced under
// -short) through Minimize and validates every result against the truth
// table, against the package's own tautology-based Verify, and — on a
// sample — against the exact Quine-McCluskey minimum cover.
func TestDifferentialReference(t *testing.T) {
	count := 1200
	if testing.Short() {
		count = 150
	}
	idx := 0
	check := func(seed int64) bool {
		idx++
		rng := rand.New(rand.NewSource(seed))
		f := randRefFunc(rng)
		min := minimizeRef(f)
		if msg := checkAgainstReference(f, min); msg != "" {
			t.Errorf("seed %d: %s\non-set:\n%sdc-set:\n%sminimized:\n%s",
				seed, msg, f.on, f.dc, min)
			return false
		}
		if !Verify(min, f.on, f.dc) {
			t.Errorf("seed %d: Verify disagrees with the truth-table reference", seed)
			return false
		}
		// Exact differential on a sample: the QM minimum cover can never
		// use more cubes than the heuristic result.
		if idx%7 == 0 {
			if exact := ExactCubeCount(f.on, f.dc, ExactOptions{MaxPrimes: 2000, MaxNodes: 1 << 16}); exact >= 0 {
				if exact > min.Len() {
					t.Errorf("seed %d: exact minimum %d exceeds heuristic %d — exact minimizer broken",
						seed, exact, min.Len())
					return false
				}
				if min.Len() > 3*exact+2 {
					t.Errorf("seed %d: heuristic %d cubes vs exact %d — lost all minimization quality",
						seed, min.Len(), exact)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: count,
		Values:   nil,
		Rand:     rand.New(rand.NewSource(20260806)),
	}
	if err := quick.Check(func(seed int64) bool { return check(seed) }, cfg); err != nil {
		t.Fatalf("differential suite failed: %v", err)
	}
}

// TestDifferentialKnownShapes pins a few hand-picked shapes that exercise
// the terminal cases of the recursion: tautological on-sets, single-cube
// covers, and covers whose don't-care set swallows everything.
func TestDifferentialKnownShapes(t *testing.T) {
	s := cube.NewStructure(2, 3, 2)

	full := cube.NewCover(s)
	full.Add(s.FullCube())
	fullMin := Minimize(full, nil, Options{})
	if fullMin.Len() != 1 || !s.IsFull(fullMin.Cubes[0]) {
		t.Fatalf("universe function not minimized to the universe cube:\n%s", fullMin)
	}

	// Two halves of a binary variable merge into the universe.
	halves := cube.NewCover(s)
	a := s.FullCube()
	s.Clear(a, 0, 0)
	b := s.FullCube()
	s.Clear(b, 0, 1)
	halves.Add(a)
	halves.Add(b)
	if m := Minimize(halves, nil, Options{}); m.Len() != 1 {
		t.Fatalf("x + x' did not merge to the universe:\n%s", m)
	}

	// A function whose dc-set covers the whole space needs at most one
	// cube — IRREDUNDANT may drop even that one, since every on-minterm
	// is also a don't-care.
	dcAll := cube.NewCover(s)
	dcAll.Add(s.FullCube())
	onOne := cube.NewCover(s)
	onOne.Add(randRefCube(rand.New(rand.NewSource(1)), s))
	if m := Minimize(onOne, dcAll, Options{}); m.Len() > 1 {
		t.Fatalf("dc = universe left %d cubes:\n%s", m.Len(), m)
	}
}
