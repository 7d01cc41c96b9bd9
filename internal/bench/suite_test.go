package bench

import (
	"testing"

	"nova/internal/verify"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 35 {
		t.Fatalf("suite has %d entries, want 35", len(s))
	}
	if len(TableI()) != 30 {
		t.Fatalf("Table I has %d entries, want 30", len(TableI()))
	}
	for _, e := range s {
		if e.F == nil {
			t.Fatalf("%s: nil FSM", e.Name)
		}
		if err := e.F.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if e.F.Name != e.Name {
			t.Fatalf("%s: FSM name %q", e.Name, e.F.Name)
		}
	}
}

func TestSuiteStatsMatchSpecs(t *testing.T) {
	cases := map[string]struct{ ni, sym, no, ns int }{
		"dk14":     {0, 1, 5, 7},
		"dk16":     {0, 1, 3, 27},
		"planet":   {7, 0, 19, 48},
		"scf":      {27, 0, 56, 121},
		"shiftreg": {1, 0, 1, 8},
		"modulo12": {1, 0, 1, 12},
		"train11":  {2, 0, 1, 11},
	}
	for name, want := range cases {
		f := Get(name)
		if f == nil {
			t.Fatalf("missing %s", name)
		}
		st := f.Stats()
		if st.Inputs != want.ni || st.SymIns != want.sym || st.Outputs != want.no || st.States != want.ns {
			t.Fatalf("%s: stats %+v, want %+v", name, st, want)
		}
	}
}

func TestSuiteDeterministicGeneration(t *testing.T) {
	// Generating a spec twice (fresh build path) must give identical rows;
	// Suite caching aside, the per-name seeding must be stable.
	a := Get("ex3")
	b := Get("ex3")
	if a != b {
		t.Fatal("suite should cache")
	}
	if a.String() == "" {
		t.Fatal("empty machine")
	}
}

func TestSuiteDeterministicMachines(t *testing.T) {
	for _, e := range Suite() {
		if e.Huge {
			continue
		}
		if ok, why := e.F.Deterministic(); !ok {
			t.Fatalf("%s is nondeterministic: %s", e.Name, why)
		}
	}
}

func TestShiftregSemantics(t *testing.T) {
	f := Get("shiftreg")
	// From state s011, input 1 -> s111, output is the MSB (0).
	st := f.StateIndex("s011")
	exp := verify.Simulate(f, 1, nil, st)
	if exp.Next != f.StateIndex("s111") || exp.Out[0] != '0' {
		t.Fatalf("shiftreg transition wrong: %+v", exp)
	}
	st = f.StateIndex("s100")
	exp = verify.Simulate(f, 0, nil, st)
	if exp.Next != f.StateIndex("s000") || exp.Out[0] != '1' {
		t.Fatalf("shiftreg MSB-out wrong: %+v", exp)
	}
}

func TestModulo12Semantics(t *testing.T) {
	f := Get("modulo12")
	// Counting from c11 wraps to c0 with a pulse.
	st := f.StateIndex("c11")
	exp := verify.Simulate(f, 1, nil, st)
	if exp.Next != f.StateIndex("c0") || exp.Out[0] != '1' {
		t.Fatalf("wrap transition wrong: %+v", exp)
	}
	// Disabled: stays put.
	exp = verify.Simulate(f, 0, nil, st)
	if exp.Next != st || exp.Out[0] != '0' {
		t.Fatalf("hold transition wrong: %+v", exp)
	}
}

func TestSplitInputSpace(t *testing.T) {
	for ni := 1; ni <= 4; ni++ {
		for m := 1; m <= 1<<uint(ni); m++ {
			cubes := splitInputSpace(ni, m)
			if len(cubes) != m {
				t.Fatalf("ni=%d m=%d: got %d cubes", ni, m, len(cubes))
			}
			// Disjoint and covering: count minterms.
			covered := map[int]int{}
			for _, c := range cubes {
				for v := 0; v < 1<<uint(ni); v++ {
					match := true
					for i := 0; i < ni; i++ {
						bit := byte('0')
						if v&(1<<uint(i)) != 0 {
							bit = '1'
						}
						if c[i] != '-' && c[i] != bit {
							match = false
						}
					}
					if match {
						covered[v]++
					}
				}
			}
			for v := 0; v < 1<<uint(ni); v++ {
				if covered[v] != 1 {
					t.Fatalf("ni=%d m=%d: minterm %d covered %d times", ni, m, v, covered[v])
				}
			}
		}
	}
}

func TestTermCountsNearTargets(t *testing.T) {
	// Synthetic machines should land close to the published #terms.
	cases := map[string]int{"dk14": 56, "bbtas": 24, "donfile": 96, "keyb": 170, "planet": 115}
	for name, want := range cases {
		f := Get(name)
		got := f.NumTerms()
		if got < want-want/10 || got > want+want/10 {
			t.Fatalf("%s: %d terms, want ~%d", name, got, want)
		}
	}
}
