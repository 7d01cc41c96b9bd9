package baseline

import (
	"slices"
	"testing"

	"nova/internal/constraint"
	"nova/internal/encode"
	"nova/internal/kiss"
	"nova/internal/sched"
	"nova/internal/symbolic"
)

func pairFSM(t *testing.T) *kiss.FSM {
	t.Helper()
	f := kiss.New("pair", 1, 1)
	f.MustAddRow("0", "a", "d", "1")
	f.MustAddRow("0", "b", "d", "1")
	f.MustAddRow("0", "c", "a", "0")
	f.MustAddRow("0", "d", "a", "0")
	f.MustAddRow("1", "a", "a", "0")
	f.MustAddRow("1", "b", "b", "0")
	f.MustAddRow("1", "c", "c", "1")
	f.MustAddRow("1", "d", "c", "1")
	return f
}

func TestOneHot(t *testing.T) {
	e := OneHot(5)
	if e.Bits != 5 || !e.Distinct() {
		t.Fatalf("one-hot wrong: %+v", e)
	}
	for i, c := range e.Codes {
		if c != 1<<uint(i) {
			t.Fatalf("code %d = %b", i, c)
		}
	}
	// One-hot satisfies every input constraint.
	for _, v := range []string{"11000", "10101", "01110"} {
		if !encode.Satisfied(e, constraint.MustFromString(v)) {
			t.Fatalf("one-hot fails constraint %s", v)
		}
	}
}

func TestOneHotAssignment(t *testing.T) {
	f := pairFSM(t)
	f.AddSymbolicInput("x", "p", "q")
	for i := range f.Rows {
		f.Rows[i].SymIn = []int{-1}
	}
	a := OneHotAssignment(f)
	if a.States.Bits != 4 || len(a.SymIns) != 1 || a.SymIns[0].Bits != 2 {
		t.Fatalf("assignment shape wrong: %+v", a)
	}
}

func TestRandomAssignments(t *testing.T) {
	f := pairFSM(t)
	for trial := 0; trial < 6; trial++ {
		a := RandomAssignment(f, sched.SplitSeed(1, trial))
		if err := a.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if a.States.Bits != 2 {
			t.Fatalf("trial %d: bits %d", trial, a.States.Bits)
		}
		// Reproducible per seed.
		if again := RandomAssignment(f, sched.SplitSeed(1, trial)); !slices.Equal(a.States.Codes, again.States.Codes) {
			t.Fatalf("trial %d: codes %v, then %v from the same seed", trial, a.States.Codes, again.States.Codes)
		}
	}
	if DefaultRandomTrials(f) != f.NumStates()+len(f.SymIns) {
		t.Fatal("default trials wrong")
	}
}

func TestKISSSatisfiesAll(t *testing.T) {
	ics := []constraint.Constraint{
		{Set: constraint.MustFromString("1100000"), Weight: 1},
		{Set: constraint.MustFromString("0110000"), Weight: 1},
		{Set: constraint.MustFromString("1010000"), Weight: 1},
		{Set: constraint.MustFromString("0001111"), Weight: 2},
	}
	r := encode.SatisfyAll(7, ics)
	if len(r.Unsatisfied) != 0 {
		t.Fatalf("KISS left constraints unsatisfied: %v", r.Unsatisfied)
	}
	if !r.Enc.Distinct() {
		t.Fatal("codes not distinct")
	}
	if r.Enc.Bits < encode.MinLength(7) {
		t.Fatalf("bits = %d below minimum", r.Enc.Bits)
	}
}

func TestMustangVariants(t *testing.T) {
	f := pairFSM(t)
	seen := map[string]bool{}
	for _, v := range []MustangVariant{MustangP, MustangN, MustangPT, MustangNT} {
		e := Mustang(f, v)
		if !e.Distinct() || e.Bits != 2 {
			t.Fatalf("%s: bad encoding %+v", v, e)
		}
		seen[v.String()] = true
	}
	for _, s := range []string{"-p", "-n", "-pt", "-nt"} {
		if !seen[s] {
			t.Fatalf("missing variant %s", s)
		}
	}
}

func TestMustangWeightsFavorSharedTargets(t *testing.T) {
	f := pairFSM(t)
	// a and b share next state d under input 0: fan-out weights must
	// attract them. State order: a=0, d=1, b=2, c=3.
	w := mustangWeights(f, MustangN)
	if w[0][2] == 0 {
		t.Fatal("states sharing a next state should attract under -n")
	}
	// d and a are both reached (d from a,b; a from c,d): -p weights
	// attract next-state pairs with common sources; a and c share source c
	// and d? check a,c: reached from (c,d) and (c,d): attract.
	wp := mustangWeights(f, MustangP)
	if wp[0][3] == 0 {
		t.Fatal("next states with common sources should attract under -p")
	}
}

func TestWeightedEmbedPlacesHeavyPairsClose(t *testing.T) {
	// 4 states, one dominant pair (0,1): they must land at Hamming
	// distance 1.
	w := [][]int{
		{0, 100, 1, 1},
		{100, 0, 1, 1},
		{1, 1, 0, 1},
		{1, 1, 1, 0},
	}
	e := weightedEmbed(4, 2, w)
	d := e.Codes[0] ^ e.Codes[1]
	if d != 1 && d != 2 {
		t.Fatalf("heavy pair at distance >1: %b", d)
	}
}

func TestCream(t *testing.T) {
	f := pairFSM(t)
	a, err := Cream(f, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.States.Bits < 2 {
		t.Fatalf("cream bits = %d", a.States.Bits)
	}
}
