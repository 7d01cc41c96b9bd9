package symbolic

import (
	"testing"

	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/kiss"
	"nova/internal/verify"
)

// chainFSM is built so that merging the transitions of several states into
// one implicant is possible if one next-state code covers another: states
// a,b both go to t under input 1, but with different outputs, while under
// input 0 they map to different next states u,v — classic material for
// output covering relations.
func chainFSM(t *testing.T) *kiss.FSM {
	t.Helper()
	f := kiss.New("chain", 2, 2)
	f.MustAddRow("1-", "a", "t", "10")
	f.MustAddRow("1-", "b", "t", "10")
	f.MustAddRow("0-", "a", "u", "01")
	f.MustAddRow("0-", "b", "v", "01")
	f.MustAddRow("--", "t", "a", "00")
	f.MustAddRow("--", "u", "b", "00")
	f.MustAddRow("-1", "v", "a", "11")
	f.MustAddRow("-0", "v", "b", "11")
	return f
}

func TestAnalyzeBasics(t *testing.T) {
	f := chainFSM(t)
	out, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.FinalP.Len() == 0 {
		t.Fatal("empty FinalP")
	}
	if out.FinalCubes > out.InitialCubes {
		t.Fatalf("symbolic minimization grew the cover: %d -> %d", out.InitialCubes, out.FinalCubes)
	}
	// The covering graph must be acyclic.
	ns := f.NumStates()
	adj := make([][]bool, ns)
	for i := range adj {
		adj[i] = make([]bool, ns)
	}
	for _, e := range out.Graph {
		adj[e.From][e.To] = true
		if e.W <= 0 {
			t.Fatalf("edge %+v has non-positive weight", e)
		}
	}
	var color []int
	color = make([]int, ns)
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = 1
		for v := 0; v < ns; v++ {
			if !adj[u][v] {
				continue
			}
			if color[v] == 1 {
				return false
			}
			if color[v] == 0 && !dfs(v) {
				return false
			}
		}
		color[u] = 2
		return true
	}
	for i := 0; i < ns; i++ {
		if color[i] == 0 && !dfs(i) {
			t.Fatal("covering graph has a cycle")
		}
	}
}

func TestIOProblemShape(t *testing.T) {
	f := chainFSM(t)
	out, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := out.Problem
	if p.N != f.NumStates() {
		t.Fatalf("N = %d", p.N)
	}
	for _, cl := range p.Clusters {
		if cl.State < 0 || cl.State >= p.N {
			t.Fatalf("bad cluster state %d", cl.State)
		}
		for _, e := range cl.OC {
			if e.V != cl.State {
				t.Fatalf("cluster %d contains foreign edge %+v", cl.State, e)
			}
		}
	}
	// Every graph edge must land in its target's cluster.
	for _, e := range out.Graph {
		found := false
		for _, cl := range p.Clusters {
			if cl.State == e.To {
				for _, oc := range cl.OC {
					if oc.U == e.From {
						found = true
					}
				}
			}
		}
		if !found {
			t.Fatalf("edge %+v missing from clusters", e)
		}
	}
}

func TestEncodeIOHybridEquivalence(t *testing.T) {
	f := chainFSM(t)
	out, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := encode.IOHybrid(out.Problem, 0, encode.HybridOptions{})
	if !res.Enc.Distinct() {
		t.Fatal("codes not distinct")
	}
	asg := encoding.Assignment{States: res.Enc}
	if err := verify.EquivalentFSM(f, asg, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectOrderAblation(t *testing.T) {
	f := chainFSM(t)
	a, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(f, Options{SelectSmallFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	// Different orders may give different (IC, OC) pairs; both must be
	// structurally valid.
	if a.FinalP.Len() == 0 || b.FinalP.Len() == 0 {
		t.Fatal("one of the orders produced an empty cover")
	}
}

func TestAnalyzeFullySpecifiedCounter(t *testing.T) {
	f := kiss.New("mod4", 1, 1)
	names := []string{"c0", "c1", "c2", "c3"}
	out := []string{"0", "0", "1", "1"}
	for i := 0; i < 4; i++ {
		f.MustAddRow("0", names[i], names[(i+1)%4], out[(i+1)%4])
		f.MustAddRow("1", names[i], names[(i+3)%4], out[(i+3)%4])
	}
	o, err := Analyze(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := encode.IOHybrid(o.Problem, 0, encode.HybridOptions{})
	asg := encoding.Assignment{States: res.Enc}
	if err := verify.EquivalentFSM(f, asg, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}
