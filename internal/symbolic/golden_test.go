package symbolic

// Golden corpus of the §6.1 loop: for every non-Huge suite machine, the
// example machines and a machine with two symbolic outputs, the next-state
// loop's processing order, covering edges, cube counts, cluster count and
// per-symbolic-input constraint counts, and every symbolic output's
// covering edges and codes, are pinned to
// ../../testdata/golden/symbolic.golden. A refactor of the loop must
// leave the file byte-identical. Regenerate deliberately with
//
//	go test ./internal/symbolic -run TestGoldenSymbolic -update
//
// and review the diff like any other behaviour change.

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"nova/internal/bench"
	"nova/internal/kiss"
)

var update = flag.Bool("update", false, "rewrite the golden file")

const symbolicGolden = "../../testdata/golden/symbolic.golden"

// twoSymOutFSM has two symbolic outputs, so the output loop also runs over
// a group that does not start right after the binary outputs.
func twoSymOutFSM() *kiss.FSM {
	f := kiss.New("twosymout", 2, 1)
	f.AddSymbolicOutput("op", "nop", "load", "store", "alu")
	f.AddSymbolicOutput("bus", "idle", "read", "write")
	add := func(in, ps, ns, out, op, bus string) {
		f.MustAddRowSym(in, nil, ps, ns, out, []string{op, bus})
	}
	// Each value pair below differs on one input minterm between two rows
	// that agree on everything else, so the op loop finds nop covering
	// load in fetch and the bus loop finds write covering idle in exec.
	add("00", "fetch", "decode", "0", "load", "read")
	add("01", "fetch", "decode", "0", "nop", "read")
	add("1-", "fetch", "decode", "0", "load", "read")
	add("-0", "decode", "mem", "0", "load", "read")
	add("-1", "decode", "exec", "0", "alu", "idle")
	add("0-", "mem", "wback", "1", "store", "write")
	add("1-", "mem", "mem", "0", "load", "read")
	add("00", "exec", "wback", "1", "alu", "idle")
	add("01", "exec", "wback", "1", "alu", "write")
	add("1-", "exec", "wback", "1", "alu", "idle")
	add("0-", "wback", "fetch", "1", "store", "write")
	add("1-", "wback", "decode", "0", "nop", "idle")
	f.SetReset("fetch")
	return f
}

func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}

func joinEdges(es []Edge) string {
	if len(es) == 0 {
		return "-"
	}
	s := make([]string, len(es))
	for i, e := range es {
		s[i] = fmt.Sprintf("%d>%d:%d", e.From, e.To, e.W)
	}
	return strings.Join(s, ",")
}

// goldenSymbolicLine renders one machine's line.
func goldenSymbolicLine(t *testing.T, f *kiss.FSM) string {
	p, c, err := minimized(f, Options{})
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	out := AnalyzeMinimized(p, c, Options{})
	symIns := make([]int, len(out.SymIns))
	for i, cs := range out.SymIns {
		symIns[i] = len(cs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s order=%s edges=%s cubes=%d>%d clusters=%d symins=%s",
		f.Name, joinInts(minimizeGroup(p, c, 0, f.NumStates(), Options{}).order), joinEdges(out.Graph), out.InitialCubes, out.FinalCubes,
		len(out.Problem.Clusters), joinInts(symIns))
	encs, err := EncodeSymbolicOutputs(p, c, Options{})
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	for w, enc := range encs {
		edges, err := OutputCoveringMinimized(p, c, w, Options{})
		if err != nil {
			t.Fatalf("%s: output %d: %v", f.Name, w, err)
		}
		codes := make([]string, enc.Enc.Len())
		for i := range codes {
			codes[i] = enc.Enc.CodeString(i)
		}
		fmt.Fprintf(&b, " out%d=%s codes%d=%s", w, joinEdges(edges), w, strings.Join(codes, ","))
	}
	return b.String()
}

func TestGoldenSymbolic(t *testing.T) {
	var machines []*kiss.FSM
	for _, e := range bench.Suite() {
		if !e.Huge {
			machines = append(machines, e.F)
		}
	}
	machines = append(machines, bench.Examples()...)
	machines = append(machines, twoSymOutFSM())

	var b strings.Builder
	b.WriteString("# Symbolic-minimization corpus: default options, next-state loop then each symbolic output.\n")
	b.WriteString("# Regenerate with: go test ./internal/symbolic -run TestGoldenSymbolic -update\n")
	for _, f := range machines {
		b.WriteString(goldenSymbolicLine(t, f))
		b.WriteByte('\n')
	}
	got := b.String()

	if *update {
		if err := os.WriteFile(symbolicGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d machines)", symbolicGolden, len(machines))
		return
	}
	data, err := os.ReadFile(symbolicGolden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	want := strings.Split(string(data), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(want) {
			t.Errorf("line %d missing from golden file: %s", i+1, g)
		} else if g != want[i] {
			t.Errorf("line %d: symbolic minimization drift\n  golden: %s\n  got:    %s", i+1, want[i], g)
		}
	}
	if n := strings.Count(got, "\n"); strings.Count(string(data), "\n") != n {
		t.Errorf("golden file has %d lines, the corpus %d", strings.Count(string(data), "\n"), n)
	}
}
