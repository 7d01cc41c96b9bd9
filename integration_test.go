package nova_test

// Randomized end-to-end integration tests: random deterministic FSMs are
// pushed through every encoding algorithm and the encoded, minimized
// machine is simulated against the symbolic table. This exercises the
// whole stack (MV minimization, constraint extraction, symbolic
// minimization, the encoders, PLA translation, espresso, simulation).

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nova"
	"nova/internal/bench"
)

// randomFSM builds a random deterministic, fully specified machine.
func randomFSM(rng *rand.Rand, ni, no, ns int) *nova.FSM {
	f := nova.NewFSM("rand", ni, no)
	names := make([]string, ns)
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
	}
	for s := 0; s < ns; s++ {
		// Partition the input space by the first bit patterns.
		for v := 0; v < 1<<uint(ni); v++ {
			in := make([]byte, ni)
			for b := 0; b < ni; b++ {
				if v&(1<<uint(b)) != 0 {
					in[b] = '1'
				} else {
					in[b] = '0'
				}
			}
			out := make([]byte, no)
			for b := range out {
				out[b] = byte('0' + rng.Intn(2))
			}
			f.MustAddRow(string(in), names[s], names[rng.Intn(ns)], string(out))
		}
	}
	return f
}

func TestRandomFSMsAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(2026))
	algs := []nova.Algorithm{
		nova.IHybrid, nova.IGreedy, nova.IOHybrid, nova.IOVariant,
		nova.KISS, nova.OneHot, nova.MustangP, nova.MustangNT, nova.Random,
	}
	for trial := 0; trial < 8; trial++ {
		ni := 1 + rng.Intn(2)
		no := 1 + rng.Intn(3)
		ns := 3 + rng.Intn(6)
		f := randomFSM(rng, ni, no, ns)
		if ok, why := f.Deterministic(); !ok {
			t.Fatalf("trial %d: generator produced nondeterministic FSM: %s", trial, why)
		}
		for _, alg := range algs {
			res, err := nova.Encode(f, nova.Options{Algorithm: alg, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, alg, err)
			}
			if err := nova.Verify(f, res.Assignment); err != nil {
				t.Fatalf("trial %d %s: equivalence failed: %v\n%s", trial, alg, err, f)
			}
		}
	}
}

func TestRandomFSMsIExact(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short")
	}
	rng := rand.New(rand.NewSource(4052))
	for trial := 0; trial < 5; trial++ {
		f := randomFSM(rng, 1, 1, 3+rng.Intn(4))
		res, err := nova.Encode(f, nova.Options{Algorithm: nova.IExact, MaxWork: 500_000})
		if errors.Is(err, nova.ErrGaveUp) {
			continue // budget exhausted is a legal outcome
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.WUnsat != 0 {
			t.Fatalf("trial %d: iexact left weight %d unsatisfied", trial, res.WUnsat)
		}
		if err := nova.Verify(f, res.Assignment); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestBenchmarkMachinesEndToEnd verifies the actual suite machines (the
// small and mid ones) under the three main NOVA algorithms.
func TestBenchmarkMachinesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short")
	}
	names := []string{"bbtas", "dk27", "lion", "shiftreg", "modulo12", "train11", "beecount", "dk15"}
	for _, name := range names {
		f := bench.Get(name)
		for _, alg := range []nova.Algorithm{nova.IHybrid, nova.IGreedy, nova.IOHybrid} {
			res, err := nova.Encode(f, nova.Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			if err := nova.Verify(f, res.Assignment); err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
		}
	}
}

// TestSuiteConstraintQuality checks that the synthetic generator actually
// produces machines with nontrivial input constraints (otherwise the
// encoding comparison would be vacuous).
func TestSuiteConstraintQuality(t *testing.T) {
	withConstraints := 0
	checked := 0
	for _, e := range bench.Suite() {
		if e.Huge {
			continue
		}
		checked++
		ics, _, err := nova.Constraints(e.F)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(ics) > 0 {
			withConstraints++
		}
	}
	if withConstraints*10 < checked*8 {
		t.Fatalf("only %d of %d machines produced input constraints", withConstraints, checked)
	}
}
