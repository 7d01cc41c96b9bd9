package symbolic

import (
	"testing"

	"nova/internal/encode"
	"nova/internal/kiss"
)

// symOutFSM has a symbolic output "phase" whose values are ripe for
// covering relations: several states assert different phases on the same
// inputs.
func symOutFSM(t *testing.T) *kiss.FSM {
	t.Helper()
	f := kiss.New("symout", 2, 1)
	f.AddSymbolicOutput("phase", "idlep", "fetchp", "execp", "haltp")
	add := func(in, ps, ns, out, ph string) {
		f.MustAddRowSym(in, nil, ps, ns, out, []string{ph})
	}
	add("0-", "s0", "s0", "0", "idlep")
	add("1-", "s0", "s1", "1", "fetchp")
	add("-0", "s1", "s2", "0", "execp")
	add("-1", "s1", "s0", "0", "idlep")
	add("0-", "s2", "s2", "1", "execp")
	add("1-", "s2", "s3", "1", "haltp")
	add("--", "s3", "s3", "0", "haltp")
	return f
}

func TestOutputCoveringShape(t *testing.T) {
	f := symOutFSM(t)
	edges, err := OutputCovering(f, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.SymOuts[0].Values)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n || e.From == e.To {
			t.Fatalf("bad edge %+v", e)
		}
		if e.W <= 0 {
			t.Fatalf("edge %+v without gain", e)
		}
	}
	// Acyclicity.
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, e := range edges {
		adj[e.From][e.To] = true
	}
	color := make([]int, n)
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = 1
		for v := 0; v < n; v++ {
			if adj[u][v] {
				if color[v] == 1 {
					return false
				}
				if color[v] == 0 && !dfs(v) {
					return false
				}
			}
		}
		color[u] = 2
		return true
	}
	for i := 0; i < n; i++ {
		if color[i] == 0 && !dfs(i) {
			t.Fatal("covering graph has a cycle")
		}
	}
}

func TestOutputCoveringBadIndex(t *testing.T) {
	f := symOutFSM(t)
	if _, err := OutputCovering(f, 5, Options{}); err == nil {
		t.Fatal("want error for bad index")
	}
}

func TestEncodeSymbolicOutputs(t *testing.T) {
	p, c, err := minimized(symOutFSM(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := EncodeSymbolicOutputs(p, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d encodings", len(outs))
	}
	enc := outs[0].Enc
	if !enc.Distinct() {
		t.Fatal("codes not distinct")
	}
	for _, e := range outs[0].Edges {
		if !encode.OCSatisfied(enc, encode.OCEdge{U: e.From, V: e.To}) {
			t.Fatalf("covering edge %+v violated by %s", e, enc)
		}
	}
}
