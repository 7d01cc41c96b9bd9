// Package verify checks encodings end-to-end: it simulates the symbolic
// FSM row-by-row, evaluates the encoded two-level cover, and confirms that
// the encoded machine computes the same next state and outputs on every
// (input, state) combination (exhaustively for small input spaces, by
// seeded sampling otherwise). It also provides checkers for constraint
// satisfaction used by the tests and the benchmark harness.
package verify

import (
	"context"
	"fmt"
	"math/rand"

	"nova/internal/cube"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
)

// Expected is the symbolic simulation outcome for one total input.
type Expected struct {
	Next   int    // next state, -1 when unspecified
	Out    []byte // per output: '0', '1' or '-' (unspecified)
	SymOut []int  // per symbolic output: value index, -1 when unspecified
}

// Simulate evaluates the FSM's table at a total input: in holds one bit
// per proper input, symVals one value index per symbolic input, state the
// present state. It reads the table as the encoder builds the PLA (type
// fd, see mvmin.Build and mvmin.EncodePLA): a matched row's '-' output,
// unspecified next state or unspecified symbolic output is a don't-care,
// and a don't-care wins over what other matched rows assert, as ESPRESSO's
// don't-care set wins over its on-set. Otherwise an output is 1 when a
// matched row asserts it and 0 when none does. Of conflicting next states
// the first row's is taken (deterministic tables never conflict).
func Simulate(f *kiss.FSM, in uint64, symVals []int, state int) Expected {
	exp := Expected{Next: -1, Out: make([]byte, f.NO), SymOut: make([]int, len(f.SymOuts))}
	for o := range exp.Out {
		exp.Out[o] = '-'
	}
	for j := range exp.SymOut {
		exp.SymOut[j] = -1
	}
	matched, nextDC := false, false
	outDC := make([]bool, f.NO)
	symDC := make([]bool, len(f.SymOuts))
	for _, r := range f.Rows {
		if r.Present >= 0 && r.Present != state {
			continue
		}
		ok := true
		for i := 0; i < f.NI; i++ {
			bit := byte('0')
			if in&(1<<uint(i)) != 0 {
				bit = '1'
			}
			if r.In[i] != '-' && r.In[i] != bit {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, v := range r.SymIn {
			if v >= 0 && v != symVals[j] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		matched = true
		if r.Next < 0 {
			nextDC = true
		} else if exp.Next < 0 {
			exp.Next = r.Next
		}
		for o := 0; o < f.NO; o++ {
			switch r.Out[o] {
			case '1':
				exp.Out[o] = '1'
			case '-':
				outDC[o] = true
			}
		}
		for j, v := range r.SymOut {
			if v < 0 {
				symDC[j] = true
			} else if exp.SymOut[j] < 0 {
				exp.SymOut[j] = v
			}
		}
	}
	if !matched {
		return exp
	}
	if nextDC {
		exp.Next = -1
	}
	for o := range exp.Out {
		switch {
		case outDC[o]:
			exp.Out[o] = '-'
		case exp.Out[o] != '1':
			exp.Out[o] = '0'
		}
	}
	for j := range exp.SymOut {
		if symDC[j] {
			exp.SymOut[j] = -1
		}
	}
	return exp
}

// EvalCover evaluates a multi-output cover (structure: nin binary
// variables plus one output variable) at the binary input point and
// returns the asserted output bits.
func EvalCover(cov *cube.Cover, nin int, point uint64) []bool {
	s := cov.S
	nout := s.Size(nin)
	out := make([]bool, nout)
	for _, c := range cov.Cubes {
		hit := true
		for i := 0; i < nin; i++ {
			bit := 0
			if point&(1<<uint(i)) != 0 {
				bit = 1
			}
			if !s.Test(c, i, bit) {
				hit = false
				break
			}
		}
		if !hit {
			continue
		}
		for o := 0; o < nout; o++ {
			if s.Test(c, nin, o) {
				out[o] = true
			}
		}
	}
	return out
}

// Options tunes the equivalence check.
type Options struct {
	// Ctx, when non-nil, is polled between states of the simulation sweep
	// and passed down into the minimization; on cancellation the check
	// returns the context error.
	Ctx context.Context
	// MaxExhaustiveInputs is the largest proper-input width checked
	// exhaustively; wider machines are sampled. Default 10.
	MaxExhaustiveInputs int
	// Samples is the number of random input vectors per state in sampling
	// mode. Default 64.
	Samples int
	// Seed drives sampling.
	Seed int64
}

// Equivalent checks that the minimized encoded cover implements the FSM
// under the assignment: for every (input, symbolic input, state) it
// compares next-state code and outputs against the symbolic simulation.
// It returns an error describing the first mismatch.
func Equivalent(f *kiss.FSM, asg encoding.Assignment, cov *cube.Cover, opt Options) error {
	if opt.MaxExhaustiveInputs <= 0 {
		opt.MaxExhaustiveInputs = 10
	}
	if opt.Samples <= 0 {
		opt.Samples = 64
	}
	nin := f.NI + asg.InputBits() + asg.States.Bits
	if cov.S.NumVars() != nin+1 {
		return fmt.Errorf("verify: cover has %d vars, want %d", cov.S.NumVars(), nin+1)
	}
	sb := asg.States.Bits

	symCount := 1
	for _, v := range f.SymIns {
		symCount *= len(v.Values)
	}

	check := func(in uint64, symVals []int, st int) error {
		exp := Simulate(f, in, symVals, st)
		// Build the encoded input point.
		point := in
		shift := uint(f.NI)
		for j, v := range symVals {
			point |= asg.SymIns[j].Codes[v] << shift
			shift += uint(asg.SymIns[j].Bits)
		}
		point |= asg.States.Codes[st] << shift
		got := EvalCover(cov, nin, point)
		if exp.Next >= 0 {
			want := asg.States.Codes[exp.Next]
			for b := 0; b < sb; b++ {
				if got[b] != (want&(1<<uint(b)) != 0) {
					return fmt.Errorf("verify: state %s input %0*b: next-state bit %d = %v, want state %s",
						f.States[st], f.NI, in, b, got[b], f.States[exp.Next])
				}
			}
		}
		for o := 0; o < f.NO; o++ {
			switch exp.Out[o] {
			case '1':
				if !got[sb+o] {
					return fmt.Errorf("verify: state %s input %0*b: output %d = 0, want 1", f.States[st], f.NI, in, o)
				}
			case '0':
				if got[sb+o] {
					return fmt.Errorf("verify: state %s input %0*b: output %d = 1, want 0", f.States[st], f.NI, in, o)
				}
			}
		}
		base := sb + f.NO
		for j, v := range exp.SymOut {
			enc := asg.SymOuts[j]
			if v >= 0 {
				want := enc.Codes[v]
				for b := 0; b < enc.Bits; b++ {
					if got[base+b] != (want&(1<<uint(b)) != 0) {
						return fmt.Errorf("verify: state %s input %0*b: symbolic output %s bit %d wrong (want value %s)",
							f.States[st], f.NI, in, f.SymOuts[j].Name, b, f.SymOuts[j].Values[v])
					}
				}
			}
			base += enc.Bits
		}
		return nil
	}

	forEachSym := func(fn func(symVals []int) error) error {
		symVals := make([]int, len(f.SymIns))
		var rec func(j int) error
		rec = func(j int) error {
			if j == len(f.SymIns) {
				return fn(symVals)
			}
			for v := 0; v < len(f.SymIns[j].Values); v++ {
				symVals[j] = v
				if err := rec(j + 1); err != nil {
					return err
				}
			}
			return nil
		}
		return rec(0)
	}

	if f.NI <= opt.MaxExhaustiveInputs && symCount <= 64 {
		for st := range f.States {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					return err
				}
			}
			for in := uint64(0); in < 1<<uint(f.NI); in++ {
				inp := in
				if err := forEachSym(func(sv []int) error { return check(inp, sv, st) }); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	symVals := make([]int, len(f.SymIns))
	for st := range f.States {
		if opt.Ctx != nil {
			if err := opt.Ctx.Err(); err != nil {
				return err
			}
		}
		for t := 0; t < opt.Samples; t++ {
			in := rng.Uint64() & ((1 << uint(f.NI)) - 1)
			for j := range symVals {
				symVals[j] = rng.Intn(len(f.SymIns[j].Values))
			}
			if err := check(in, symVals, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// EquivalentFSM is a convenience: encode, minimize and check in one step.
func EquivalentFSM(f *kiss.FSM, asg encoding.Assignment, opt Options) error {
	e, err := mvmin.EncodePLA(f, asg)
	if err != nil {
		return err
	}
	min := e.Minimize(espresso.Options{Ctx: opt.Ctx})
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return err
		}
	}
	return Equivalent(f, asg, min, opt)
}
