package encode

import (
	"testing"

	"nova/internal/constraint"
)

func TestSlackVectorsOrderAndCompleteness(t *testing.T) {
	lo := []int{1, 1}
	hi := []int{3, 3}
	vecs, truncated := slackVectors(lo, hi, 1000)
	if truncated {
		t.Fatal("tiny space must not truncate")
	}
	if len(vecs) != 9 {
		t.Fatalf("got %d vectors, want 9", len(vecs))
	}
	slack := func(v []int) int { return v[0] - 1 + v[1] - 1 }
	for i := 1; i < len(vecs); i++ {
		if slack(vecs[i-1]) > slack(vecs[i]) {
			t.Fatalf("slack not nondecreasing: %v", vecs)
		}
	}
	if vecs[0][0] != 1 || vecs[0][1] != 1 {
		t.Fatalf("first vector %v, want minimum levels", vecs[0])
	}
	// Balanced-first within a tier: slack 2 must start with (2,2).
	for i, v := range vecs {
		if slack(v) == 2 {
			if v[0] != 2 || v[1] != 2 {
				t.Fatalf("slack-2 tier starts with %v at %d, want (2,2)", v, i)
			}
			break
		}
	}
	// No duplicates.
	seen := map[[2]int]bool{}
	for _, v := range vecs {
		k := [2]int{v[0], v[1]}
		if seen[k] {
			t.Fatalf("duplicate vector %v", v)
		}
		seen[k] = true
	}
}

func TestSlackVectorsTruncation(t *testing.T) {
	lo := []int{0, 0, 0, 0, 0}
	hi := []int{4, 4, 4, 4, 4}
	vecs, truncated := slackVectors(lo, hi, 10)
	if !truncated {
		t.Fatal("expected truncation")
	}
	if len(vecs) != 10 {
		t.Fatalf("got %d vectors, want 10", len(vecs))
	}
}

func TestSlackVectorsEmpty(t *testing.T) {
	vecs, truncated := slackVectors(nil, nil, 10)
	if truncated || len(vecs) != 1 || len(vecs[0]) != 0 {
		t.Fatalf("empty instance: %v %v", vecs, truncated)
	}
}

func TestIExactProvenOnEasyInstance(t *testing.T) {
	// Each instance completes exhaustively at 4 bits: minimality is
	// proven. iexact starts at mincube_dim, so a bound above the true
	// minimum, as the paper's count_cond2/3 give on the two instances
	// with unused codes, would return 5 bits marked Proven.
	for name, inst := range map[string]func() (int, []constraint.Constraint){
		"paper":        func() (int, []constraint.Constraint) { return 7, paperIC() },
		"unused-code":  unusedCodeInstance,
		"father-count": fatherCountInstance,
	} {
		n, ics := inst()
		res := IExact(n, ics, ExactOptions{})
		if res.GaveUp || !res.Proven || res.Enc.Bits != 4 {
			t.Fatalf("%s: bits=%d proven=%v gaveUp=%v, want 4 bits proven",
				name, res.Enc.Bits, res.Proven, res.GaveUp)
		}
		checkAllSatisfied(t, res.Enc, ics)
	}
}

func TestIExactConstructiveFallback(t *testing.T) {
	// A dense instance under a starvation budget: the constructive upper
	// bound must be returned, satisfying everything, unproven.
	var ics []constraint.Constraint
	for _, v := range []string{"1101", "1011", "0111", "1100", "1010", "0110", "0101", "0011"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}
	res := IExact(4, ics, ExactOptions{MaxWork: 50})
	if res.GaveUp {
		t.Fatal("constructive fallback missing")
	}
	if len(res.Unsatisfied) != 0 {
		t.Fatalf("fallback left %v unsatisfied", res.Unsatisfied)
	}
	if res.Proven {
		t.Fatal("a starved search cannot prove minimality")
	}
	// With a real budget the same instance completes at 4 bits.
	full := IExact(4, ics, ExactOptions{MaxWork: 2_000_000})
	if full.GaveUp || full.Enc.Bits > res.Enc.Bits {
		t.Fatalf("full search worse than fallback: %d > %d", full.Enc.Bits, res.Enc.Bits)
	}
	checkAllSatisfied(t, full.Enc, ics)
}

func TestIExactSemanticConditions(t *testing.T) {
	// The triangle instance of three mutually overlapping pairs: a
	// semantic solution exists at 3 bits (codes 000, 011, 101 span
	// pairwise faces excluding the third).
	ics := []constraint.Constraint{
		{Set: constraint.MustFromString("110"), Weight: 1},
		{Set: constraint.MustFromString("011"), Weight: 1},
		{Set: constraint.MustFromString("101"), Weight: 1},
	}
	res := IExact(3, ics, ExactOptions{})
	if res.GaveUp {
		t.Fatal("gave up")
	}
	checkAllSatisfied(t, res.Enc, ics)
	if res.Enc.Bits != 3 {
		t.Fatalf("bits = %d, want 3", res.Enc.Bits)
	}
}

// unusedCodeInstance: 15 states, state s at code s+1, so code 0000 is
// unused; one constraint {e_i, e_j, e_i|e_j} per i<j<4. All six faces
// meet at the unused code, and all six fit the 4-cube.
func unusedCodeInstance() (int, []constraint.Constraint) {
	const n = 15
	var ics []constraint.Constraint
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			s := constraint.NewSet(n)
			for _, code := range []int{1 << i, 1 << j, 1<<i | 1<<j} {
				s.Add(code - 1)
			}
			ics = append(ics, constraint.Constraint{Set: s, Weight: 1})
		}
	}
	return n, ics
}

// fatherCountInstance: 8 states with a 4-bit embedding, where the unused
// codes let a node have more fathers than free directions.
func fatherCountInstance() (int, []constraint.Constraint) {
	var ics []constraint.Constraint
	for _, v := range []string{"01010000", "01000111", "00101101", "01010100", "00110110"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}
	return 8, ics
}

// TestIHybridKeepsUnusedCodeFaces: refuting a semiexact step must never
// reject one the search would accept. ihybrid satisfies all six
// constraints of the unused-code instance at 4 bits.
func TestIHybridKeepsUnusedCodeFaces(t *testing.T) {
	n, ics := unusedCodeInstance()
	res := IHybrid(n, ics, 0, HybridOptions{})
	if res.Enc.Bits != 4 || len(res.Unsatisfied) != 0 {
		t.Fatalf("bits=%d unsatisfied=%v, want all six satisfied at 4 bits", res.Enc.Bits, res.Unsatisfied)
	}
	checkAllSatisfied(t, res.Enc, ics)
}
