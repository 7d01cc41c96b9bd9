package espresso_test

import (
	"math/bits"
	"testing"

	"nova/internal/bench"
	"nova/internal/cube"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/mvmin"
)

// sequential returns an encoding of n values in the fewest bits, value i
// coded i.
func sequential(n int) encoding.Encoding {
	e := encoding.Encoding{Bits: bits.Len(uint(n - 1))}
	for i := 0; i < n; i++ {
		e.Codes = append(e.Codes, uint64(i))
	}
	return e
}

// TestMinimizeMatchesFullLoopOnSuite is TestMinimizeMatchesFullLoop on
// real covers, whose REDUCE rounds pay off far more often than random
// functions' do: each suite and example machine's multiple-valued cover,
// and its encoded PLA under sequential codes, must minimize bit for bit
// as the loop that raises every cube and has no early stop does.
func TestMinimizeMatchesFullLoopOnSuite(t *testing.T) {
	machines := bench.Examples()
	for _, e := range bench.Suite() {
		machines = append(machines, e.F)
	}
	tally := map[string]int{}
	check := func(name string, on, dc *cube.Cover) {
		t.Helper()
		want := espresso.FullLoopMinimize(on, dc, tally)
		if got := espresso.Minimize(on, dc, espresso.Options{}); !got.Equal(want) {
			t.Fatalf("%s: MinimizeWith gave\n%swant\n%s", name, got, want)
		}
	}
	for _, f := range machines {
		p, err := mvmin.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		check(f.Name+" multiple-valued", p.On, p.Dc)
		asg := encoding.Assignment{States: sequential(f.NumStates())}
		for _, v := range f.SymIns {
			asg.SymIns = append(asg.SymIns, sequential(len(v.Values)))
		}
		for _, v := range f.SymOuts {
			asg.SymOuts = append(asg.SymOuts, sequential(len(v.Values)))
		}
		e, err := p.EncodePLA(asg)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		check(f.Name+" encoded", e.On, e.Dc)
	}
	t.Logf("over %d machines: %v", len(machines), tally)
	if tally["rounds lowered the cost"] < len(machines) {
		t.Fatalf("REDUCE rounds paid off too rarely: %v", tally)
	}
}
