package kiss

import (
	"strings"
	"testing"
)

const lionKiss = `
# four-state monitor
.i 2
.o 1
.s 4
.p 11
.r st0
-0 st0 st0 0
11 st0 st0 0
01 st0 st1 0
-1 st1 st1 1
10 st1 st2 1
00 st2 st2 1
-1 st2 st3 1
01 st3 st3 1
10 st3 st2 1
10 st2 st1 1
11 st3 st3 1
.e
`

func TestParseBasic(t *testing.T) {
	f, err := ParseString(lionKiss)
	if err != nil {
		t.Fatal(err)
	}
	if f.NI != 2 || f.NO != 1 {
		t.Fatalf("NI=%d NO=%d", f.NI, f.NO)
	}
	if f.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", f.NumStates())
	}
	if f.NumTerms() != 11 {
		t.Fatalf("terms = %d, want 11", f.NumTerms())
	}
	if f.Reset != f.StateIndex("st0") || f.Reset < 0 {
		t.Fatalf("reset = %d", f.Reset)
	}
}

func TestParseRejectsBadWidth(t *testing.T) {
	_, err := ParseString(".i 2\n.o 1\n0 a b 1\n")
	if err == nil {
		t.Fatal("want error for width mismatch")
	}
}

func TestParseRejectsBadP(t *testing.T) {
	_, err := ParseString(".i 1\n.o 1\n.p 5\n0 a b 1\n")
	if err == nil {
		t.Fatal("want error for .p mismatch")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := ParseString(".i 1\n.o 1\n.e\n"); err == nil {
		t.Fatal("want error for empty table")
	}
}

func TestParseRejectsUnknownDirective(t *testing.T) {
	if _, err := ParseString(".i 1\n.o 1\n.bogus x\n0 a b 1\n"); err == nil {
		t.Fatal("want error for unknown directive")
	}
}

func TestParseRejectsUnknownResetState(t *testing.T) {
	if _, err := ParseString(".i 1\n.o 1\n.r nowhere\n0 a b 1\n"); err == nil {
		t.Fatal("want error for unknown reset state")
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseString(lionKiss)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseString(f.String())
	if err != nil {
		t.Fatalf("reparsing our own output: %v", err)
	}
	if g.NumStates() != f.NumStates() || g.NumTerms() != f.NumTerms() || g.Reset != f.Reset {
		t.Fatal("round trip changed the machine shape")
	}
	for i := range f.Rows {
		if f.Rows[i].In != g.Rows[i].In || f.Rows[i].Present != g.Rows[i].Present ||
			f.Rows[i].Next != g.Rows[i].Next || f.Rows[i].Out != g.Rows[i].Out {
			t.Fatalf("row %d differs after round trip", i)
		}
	}
}

func TestDontCareNextState(t *testing.T) {
	f, err := ParseString(".i 1\n.o 1\n0 a * 1\n1 a b 0\n- b a -\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows[0].Next != -1 {
		t.Fatal("next '*' should parse as -1")
	}
	if f.Rows[2].Out != "-" {
		t.Fatal("output '-' lost")
	}
}

func TestSymbolicInputs(t *testing.T) {
	f := New("proto", 1, 1)
	f.AddSymbolicInput("cmd", "rd", "wr", "idle")
	f.MustAddRow("0", "s0", "s1", "1", "rd")
	f.MustAddRow("1", "s0", "s0", "0", "-")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(f.SymIns) != 1 || f.SymIns[0].Index("wr") != 1 {
		t.Fatal("symbolic input registration wrong")
	}
	if f.Rows[0].SymIn[0] != 0 || f.Rows[1].SymIn[0] != -1 {
		t.Fatal("symbolic values wrong")
	}
	if err := f.AddRow("0", "s0", "s1", "1", "bogus"); err == nil {
		t.Fatal("want error for unknown symbolic value")
	}
}

func TestDeterministic(t *testing.T) {
	f, _ := ParseString(lionKiss)
	if ok, why := f.Deterministic(); !ok {
		t.Fatalf("lion should be deterministic: %s", why)
	}
	g := New("nd", 1, 1)
	g.MustAddRow("0", "a", "b", "1")
	g.MustAddRow("-", "a", "c", "1")
	if ok, _ := g.Deterministic(); ok {
		t.Fatal("overlapping rows with different next states must be flagged")
	}
}

func TestStats(t *testing.T) {
	f, _ := ParseString(lionKiss)
	f.Name = "lion"
	st := f.Stats()
	if st.Name != "lion" || st.Inputs != 2 || st.Outputs != 1 || st.States != 4 || st.Terms != 11 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPLAWriteAndCover(t *testing.T) {
	p := &PLA{NI: 3, NO: 2}
	if err := p.AddRow("01-", "1-"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRow("1--", "-1"); err != nil {
		t.Fatal(err)
	}
	if err := p.AddRow("0", "1"); err == nil {
		t.Fatal("want width error")
	}
	text := p.String()
	if !strings.Contains(text, ".i 3") || !strings.Contains(text, "01- 1-") {
		t.Fatalf("PLA text wrong:\n%s", text)
	}
	on := p.OnSet()
	if on.Len() != 2 {
		t.Fatalf("on-set has %d cubes", on.Len())
	}
	back, err := FromCover(on, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Rows[0].In != "01-" || back.Rows[0].Out != "1-" {
		t.Fatalf("FromCover round trip wrong: %+v", back.Rows)
	}
}

func TestAreaModel(t *testing.T) {
	// dk14-like check of the paper's formula: inputs=3, bits=6, out=5,
	// cubes=26 -> (2*(3+6)+6+5)*26 = 754... the paper's dk14 row uses
	// inputs+bits differently per example; just check the arithmetic.
	if got := Area(3, 6, 5, 26); got != (2*(3+6)+6+5)*26 {
		t.Fatalf("Area = %d", got)
	}
	if got := Area(2, 3, 1, 8); got != (2*(2+3)+3+1)*8 {
		t.Fatalf("Area = %d", got)
	}
}
