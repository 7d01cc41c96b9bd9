package mvmin

import (
	"math/bits"
	"testing"

	"nova/internal/bench"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
)

// symFSM exercises every translation path: symbolic input, symbolic
// output, any-state rows, unspecified next states, '-' outputs and an
// incompletely specified input space.
func symFSM(t *testing.T) *kiss.FSM {
	t.Helper()
	f := kiss.New("sym", 1, 2)
	f.AddSymbolicInput("cmd", "go", "halt", "skip")
	f.AddSymbolicOutput("mode", "m0", "m1")
	add := func(in string, si []string, ps, ns, out string, so []string) {
		t.Helper()
		if err := f.AddRowSym(in, si, ps, ns, out, so); err != nil {
			t.Fatal(err)
		}
	}
	add("0", []string{"go"}, "a", "b", "10", []string{"m0"})
	add("0", []string{"halt"}, "a", "a", "0-", []string{"m1"})
	add("1", []string{"-"}, "a", "*", "01", []string{"-"})
	add("-", []string{"skip"}, "b", "a", "1-", []string{"m0"})
	add("-", []string{"go"}, "b", "c", "00", []string{"m1"})
	// Any-state fallback for one input slice.
	add("1", []string{"halt"}, "-", "c", "11", []string{"m0"})
	return f
}

func symAssignment(f *kiss.FSM) encoding.Assignment {
	return encoding.Assignment{
		States:  encoding.Encoding{Bits: 2, Codes: []uint64{0, 1, 2}},
		SymIns:  []encoding.Encoding{{Bits: 2, Codes: []uint64{0, 1, 3}}},
		SymOuts: []encoding.Encoding{{Bits: 1, Codes: []uint64{0, 1}}},
	}
}

func TestEncodePLASymbolicPaths(t *testing.T) {
	f := symFSM(t)
	e, err := EncodePLA(f, symAssignment(f))
	if err != nil {
		t.Fatal(err)
	}
	// PLA inputs: 1 binary + 2 symbolic-input bits + 2 state bits.
	if e.NIn != 5 {
		t.Fatalf("NIn = %d, want 5", e.NIn)
	}
	// Outputs: 2 state bits + 2 binary + 1 symbolic-output bit.
	if e.NOut != 5 {
		t.Fatalf("NOut = %d, want 5", e.NOut)
	}
	if e.On.Len() == 0 || e.Dc.Len() == 0 {
		t.Fatalf("on=%d dc=%d", e.On.Len(), e.Dc.Len())
	}
	min := e.Minimize(espresso.Options{})
	if min.Len() == 0 || min.Len() > e.On.Len() {
		t.Fatalf("minimized to %d (on-set %d)", min.Len(), e.On.Len())
	}
}

func TestEncodePLASymbolicValidation(t *testing.T) {
	f := symFSM(t)
	a := symAssignment(f)
	a.SymOuts = nil
	if _, err := EncodePLA(f, a); err == nil {
		t.Fatal("missing symbolic output encoding must fail")
	}
	a = symAssignment(f)
	a.SymIns[0].Codes = a.SymIns[0].Codes[:2]
	if _, err := EncodePLA(f, a); err == nil {
		t.Fatal("short symbolic input encoding must fail")
	}
	a = symAssignment(f)
	a.SymOuts[0].Codes = []uint64{0, 1, 2}
	if _, err := EncodePLA(f, a); err == nil {
		t.Fatal("oversized symbolic output encoding must fail")
	}
}

func TestMeasureSymbolicAreaModel(t *testing.T) {
	f := symFSM(t)
	a := symAssignment(f)
	m, err := Measure(f, a, espresso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// inputs = 1 + 2 symbolic bits; outputs = 2 + 1 symbolic bit.
	want := kiss.Area(3, 2, 3, m.Cubes)
	if m.Area != want {
		t.Fatalf("area %d, want %d", m.Area, want)
	}
	if m.Bits != 4 {
		t.Fatalf("bits %d, want 4 (states + symbolic inputs)", m.Bits)
	}
}

func TestBuildSymbolicStructure(t *testing.T) {
	f := symFSM(t)
	p, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	// Vars: 1 binary input + 1 symbolic input + state var + output var.
	if p.S.NumVars() != 4 {
		t.Fatalf("vars = %d", p.S.NumVars())
	}
	// Output var parts: 3 next-state + 2 binary + 2 symbolic-output.
	if p.S.Size(p.OutVar) != 7 {
		t.Fatalf("output parts = %d, want 7", p.S.Size(p.OutVar))
	}
	if len(p.SymOutBase) != 1 || p.SymOutBase[0] != 5 {
		t.Fatalf("SymOutBase = %v", p.SymOutBase)
	}
	// The partial specification must produce full-output DC cubes.
	full := 0
	for _, d := range p.Dc.Cubes {
		if p.S.VarFull(d, p.OutVar) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no unspecified-space DC emitted")
	}
	min := p.Minimize(espresso.Options{})
	cs := p.Constraints(min)
	if len(cs.SymIns) != 1 {
		t.Fatal("symbolic input constraints missing")
	}
}

func TestRowInputCubeAnyState(t *testing.T) {
	f := symFSM(t)
	p, err := Build(f)
	if err != nil {
		t.Fatal(err)
	}
	// Row 5 has Present = -1: its cube must span the full state variable.
	c, err := p.rowInputCube(f.Rows[5])
	if err != nil {
		t.Fatal(err)
	}
	if !p.S.VarFull(c, p.StateVar) {
		t.Fatal("any-state row does not span the state variable")
	}
}

// codes returns an encoding of n values in the fewest bits, value i coded
// i, or its reverse, n-1-i, when rev.
func codes(n int, rev bool) encoding.Encoding {
	e := encoding.Encoding{Bits: bits.Len(uint(n - 1))}
	for i := 0; i < n; i++ {
		c := uint64(i)
		if rev {
			c = uint64(n - 1 - i)
		}
		e.Codes = append(e.Codes, c)
	}
	return e
}

// TestProblemEncodePLAMatchesEncodePLA requires one built Problem to
// encode every assignment of its machine cube for cube as EncodePLA,
// which builds its own, does: over the suite and example machines, two
// assignments each, both from the same Problem.
func TestProblemEncodePLAMatchesEncodePLA(t *testing.T) {
	machines := bench.Examples()
	for _, e := range bench.Suite() {
		machines = append(machines, e.F)
	}
	for _, f := range machines {
		p, err := Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, rev := range []bool{false, true} {
			asg := encoding.Assignment{States: codes(f.NumStates(), rev)}
			for _, v := range f.SymIns {
				asg.SymIns = append(asg.SymIns, codes(len(v.Values), rev))
			}
			for _, v := range f.SymOuts {
				asg.SymOuts = append(asg.SymOuts, codes(len(v.Values), rev))
			}
			got, err := p.EncodePLA(asg)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			want, err := EncodePLA(f, asg)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if got.NIn != want.NIn || got.NOut != want.NOut || !got.S.Equal(want.S) ||
				!got.On.Equal(want.On) || !got.Dc.Equal(want.Dc) {
				t.Fatalf("%s, reversed codes %v: Problem.EncodePLA differs from EncodePLA", f.Name, rev)
			}
		}
	}
}
