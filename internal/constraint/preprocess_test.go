package constraint_test

import (
	"math/rand"
	"testing"

	"nova/internal/constraint"
	"nova/internal/encode"
	"nova/internal/encoding"
)

// randomConstraints builds a list with deliberate duplicates and
// trivial entries, so Normalize has something to merge and drop.
func randomConstraints(rng *rand.Rand, n, count int) []constraint.Constraint {
	list := make([]constraint.Constraint, 0, count)
	for len(list) < count {
		if len(list) > 0 && rng.Intn(3) == 0 {
			// Duplicate an earlier set with a fresh weight.
			d := list[rng.Intn(len(list))]
			list = append(list, constraint.Constraint{Set: d.Set.Copy(), Weight: 1 + rng.Intn(5)})
			continue
		}
		s := constraint.NewSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		list = append(list, constraint.Constraint{Set: s, Weight: 1 + rng.Intn(5)})
	}
	return list
}

// satisfiedWeight is the scoring rule of encode.score restricted to
// weights: the total weight of constraints an encoding satisfies.
// Trivial constraints (cardinality < 2 or = n) always count as
// satisfied, which is exactly why dropping them is sound.
func satisfiedWeight(e encoding.Encoding, list []constraint.Constraint) int {
	w := 0
	for _, c := range list {
		card := c.Set.Card()
		if card < 2 || card == c.Set.N() || encode.Satisfied(e, c.Set) {
			w += c.Weight
		}
	}
	return w
}

// TestPreprocessPreservesSatisfiableWeight is the quick-check property
// of the constraint-merging layer: under ANY encoding, the satisfied
// weight of the preprocessed list equals that of the raw list — merging
// duplicates and dropping trivially satisfied sets never lowers (or
// raises) the total satisfiable weight.
func TestPreprocessPreservesSatisfiableWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		raw := randomConstraints(rng, n, 1+rng.Intn(12))
		prep := constraint.Normalize(raw)

		if got, want := constraint.TotalWeight(prep)+trivialWeight(raw), constraint.TotalWeight(raw); got != want {
			t.Fatalf("trial %d: preprocessing lost weight: kept %d + trivial %d != raw %d", trial, constraint.TotalWeight(prep), trivialWeight(raw), want)
		}
		for probe := 0; probe < 8; probe++ {
			bits := encode.MinLength(n) + rng.Intn(2)
			e := encoding.New(n, bits)
			perm := rng.Perm(1 << uint(bits))
			for i := range e.Codes {
				e.Codes[i] = uint64(perm[i])
			}
			if got, want := satisfiedWeight(e, prep)+trivialWeight(raw), satisfiedWeight(e, raw); got != want {
				t.Fatalf("trial %d: satisfied weight changed under preprocessing: %d != %d\nraw: %v\nprep: %v",
					trial, got, want, raw, prep)
			}
		}
	}
}

func trivialWeight(list []constraint.Constraint) int {
	w := 0
	for _, c := range list {
		if card := c.Set.Card(); card < 2 || card == c.Set.N() {
			w += c.Weight
		}
	}
	return w
}
