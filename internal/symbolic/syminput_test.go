package symbolic

import (
	"testing"

	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/kiss"
	"nova/internal/verify"
)

func symInFSM(t *testing.T) *kiss.FSM {
	t.Helper()
	f := kiss.New("symin", 0, 1)
	f.AddSymbolicInput("op", "a", "b", "c", "d")
	add := func(op, ps, ns, out string) {
		t.Helper()
		if err := f.AddRowSym("", []string{op}, ps, ns, out, nil); err != nil {
			t.Fatal(err)
		}
	}
	add("a", "s0", "s1", "1")
	add("b", "s0", "s1", "1")
	add("c", "s0", "s2", "0")
	add("d", "s0", "s0", "0")
	add("a", "s1", "s2", "0")
	add("b", "s1", "s2", "0")
	add("c", "s1", "s0", "1")
	add("d", "s1", "s1", "0")
	add("-", "s2", "s0", "1")
	return f
}

func TestAnalyzeExtractsSymbolicInputConstraints(t *testing.T) {
	f := symInFSM(t)
	out, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.SymIns) != 1 {
		t.Fatalf("SymIns groups = %d", len(out.SymIns))
	}
	// Values a and b behave identically in two states: a constraint
	// containing {a,b} must appear.
	found := false
	for _, ic := range out.SymIns[0] {
		if ic.Set.Has(0) && ic.Set.Has(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a constraint grouping values a,b; got %v", out.SymIns[0])
	}
}

func TestEncodeIOHybridWithSymbolicInput(t *testing.T) {
	f := symInFSM(t)
	out, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := encode.IOHybrid(out.Problem, 0, encode.HybridOptions{})
	si := encode.IHybrid(len(f.SymIns[0].Values), out.SymIns[0], 0, encode.HybridOptions{})
	asg := encoding.Assignment{States: res.Enc, SymIns: []encoding.Encoding{si.Enc}}
	if err := verify.EquivalentFSM(f, asg, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}
