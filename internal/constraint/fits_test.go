package constraint

import (
	"math/rand"
	"testing"
)

// unusedCodeInstance has 15 states in the 4-cube, state s at code s+1,
// so code 0000 is the one unused code. Each constraint {e_i, e_j,
// e_i|e_j} spans the level-2 face through 0000 along i and j; the six
// faces share the unused code, which the 4-cube allows (six level-2
// faces meet at each vertex).
func unusedCodeInstance() (int, []Constraint) {
	const n = 15
	var ics []Constraint
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			s := NewSet(n)
			for _, code := range []int{1 << i, 1 << j, 1<<i | 1<<j} {
				s.Add(code - 1)
			}
			ics = append(ics, Constraint{Set: s, Weight: 1})
		}
	}
	return n, ics
}

// fatherCountInstance has 8 states and a 4-bit embedding, yet a node
// with more fathers than free directions at its minimum level: the
// unused codes let two fathers extend its face the same way.
func fatherCountInstance() (int, []Constraint) {
	var ics []Constraint
	for _, v := range []string{"01010000", "01000111", "00101101", "01010100", "00110110"} {
		ics = append(ics, Constraint{Set: MustFromString(v), Weight: 1})
	}
	return 8, ics
}

func TestMinCubeDimWithUnusedCodes(t *testing.T) {
	for name, inst := range map[string]func() (int, []Constraint){
		"unused-code":  unusedCodeInstance,
		"father-count": fatherCountInstance,
	} {
		n, ics := inst()
		if !embeds(n, 4, sets(ics)) {
			t.Fatalf("%s: exhaustive search finds no 4-bit embedding", name)
		}
		if got := BuildGraph(n, ics).MinCubeDim(); got > 4 {
			t.Errorf("%s: MinCubeDim = %d, but a 4-bit embedding exists", name, got)
		}
	}
}

// TestFitsPlantedEmbeddings plants an embedding and reads constraints
// off it: N distinct codes of the k-cube, and as constraints the states
// inside random faces. The k-cube embeds every such set, so Fits(k) must
// hold and MinCubeDim must not exceed k.
func TestFitsPlantedEmbeddings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		k := 2 + rng.Intn(4)
		n := 2 + rng.Intn(1<<k-1)
		codes := rng.Perm(1 << k)[:n]
		var ics []Constraint
		for m := 1 + rng.Intn(8); m > 0; m-- {
			free := uint(rng.Intn(1 << k)) // the face's free directions
			val := uint(rng.Intn(1 << k))
			s := NewSet(n)
			for st, c := range codes {
				if (uint(c)^val)&^free == 0 {
					s.Add(st)
				}
			}
			if c := s.Card(); c >= 2 && c < n {
				ics = append(ics, Constraint{Set: s, Weight: 1})
			}
		}
		g := BuildGraph(n, ics)
		if !g.Fits(k) || g.MinCubeDim() > k {
			t.Fatalf("planted %d-cube embedding of %d states refuted: codes %v, constraints %v",
				k, n, codes, ics)
		}
	}
}

// TestFitsRefutationsHaveNoEmbedding draws random constraint sets over
// at most 8 states and checks every refutation by exhaustive search: when
// Fits(k) is false, no injective code assignment in the k-cube may
// satisfy every constraint.
func TestFitsRefutationsHaveNoEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	refuted := 0
	for iter := 0; iter < 8000; iter++ {
		n := 3 + rng.Intn(6)
		k := log2ceil(n) + rng.Intn(5-log2ceil(n))
		var ics []Constraint
		for m := 1 + rng.Intn(5); m > 0; m-- {
			s := NewSet(n)
			for _, st := range rng.Perm(n)[:2+rng.Intn(n-2)] {
				s.Add(st)
			}
			ics = append(ics, Constraint{Set: s, Weight: 1})
		}
		if BuildGraph(n, ics).Fits(k) {
			continue
		}
		refuted++
		if embeds(n, k, sets(ics)) {
			t.Fatalf("Fits(%d) refutes %d states with constraints %v, which embed", k, n, ics)
		}
	}
	t.Logf("%d refutations checked", refuted)
	if refuted < 1000 {
		t.Fatalf("only %d refutations checked; the generator lost its reach", refuted)
	}
}

func sets(ics []Constraint) []Set {
	out := make([]Set, len(ics))
	for i, c := range ics {
		out[i] = c.Set
	}
	return out
}

// embeds reports, by exhaustive search, whether n states take distinct
// k-bit codes such that the face each set's codes span holds no other
// state's code. State 0 sits at code 0 and state 1 at a code of the form
// 0..01..1: every embedding maps to one of those by a translation and a
// coordinate permutation, which preserve faces.
func embeds(n, k int, sets []Set) bool {
	codes := make([]uint, n)
	used := make([]bool, 1<<k)
	// ok checks the placed states: the face a set's placed members span
	// only grows as more are placed, so a placed non-member inside it
	// is final.
	ok := func(placed int) bool {
		for _, s := range sets {
			first, spread, seen := uint(0), uint(0), false
			for st := 0; st < placed; st++ {
				if !s.Has(st) {
					continue
				}
				if !seen {
					first, seen = codes[st], true
				}
				spread |= codes[st] ^ first
			}
			if !seen {
				continue
			}
			for st := 0; st < placed; st++ {
				if !s.Has(st) && (codes[st]^first)&^spread == 0 {
					return false
				}
			}
		}
		return true
	}
	var place func(st int) bool
	place = func(st int) bool {
		if st == n {
			return true
		}
		for c := 0; c < 1<<k; c++ {
			if used[c] || st == 0 && c != 0 || st == 1 && c&(c+1) != 0 {
				continue
			}
			codes[st], used[c] = uint(c), true
			if ok(st+1) && place(st+1) {
				return true
			}
			used[c] = false
		}
		return false
	}
	return place(0)
}
