package nova

// Tests of the prepared machine: one derivation of the multiple-valued
// cover, its constraints, the symbolic analysis and the symbolic-output
// codes per machine, shared read-only by every candidate of a run.

import (
	"context"
	"reflect"
	"testing"

	"nova/internal/bench"
	"nova/internal/obs"
	"nova/internal/sched"
)

func phaseCount(snap *TelemetrySnapshot, name string) int {
	if ps := snap.Phase(name); ps != nil {
		return ps.Count
	}
	return 0
}

// TestOneDerivationPerMachine traces whole runs: Best and the default
// portfolio minimize the multiple-valued cover once and run the symbolic
// analysis once however many candidates consume them, at any
// Parallelism, and ConstraintsContext goes through the same derivation.
func TestOneDerivationPerMachine(t *testing.T) {
	machines := []*FSM{bench.Get("dk27"), symOutMachine(t)}
	for _, f := range machines {
		for _, alg := range []Algorithm{Best, Portfolio} {
			for _, par := range []int{1, 2} {
				res, err := Encode(f, Options{Algorithm: alg, Parallelism: par, Tracer: NewTracer()})
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", f.Name, alg, par, err)
				}
				for _, phase := range []string{"mvmin.minimize", "symbolic.analyze"} {
					if got := phaseCount(res.Telemetry, phase); got != 1 {
						t.Errorf("%s %s P=%d: %d %s spans, want 1", f.Name, alg, par, got, phase)
					}
				}
				want := 0
				if len(f.SymOuts) > 0 {
					want = 1
				}
				if got := phaseCount(res.Telemetry, "symbolic.outputs"); got != want {
					t.Errorf("%s %s P=%d: %d symbolic.outputs spans, want %d", f.Name, alg, par, got, want)
				}
			}
		}
		tr := NewTracer()
		if _, _, err := ConstraintsContext(obs.With(context.Background(), tr), f); err != nil {
			t.Fatalf("%s: ConstraintsContext: %v", f.Name, err)
		}
		if got := phaseCount(tr.Snapshot(), "mvmin.minimize"); got != 1 {
			t.Errorf("%s: ConstraintsContext recorded %d mvmin.minimize spans, want 1", f.Name, got)
		}
	}
}

// TestPreparedSharedReadOnly races every default-roster member
// concurrently on one prepared machine, then requires each derivation to
// equal a fresh prepare's: no candidate may write to the state the run
// shares. Under -race it is also the check that the candidates only read
// that state.
func TestPreparedSharedReadOnly(t *testing.T) {
	symIn := NewFSM("symin", 1, 1)
	symIn.AddSymbolicInput("op", "add", "sub", "nop", "jmp")
	symIn.MustAddRow("-", "fetch", "exec", "0", "add")
	symIn.MustAddRow("-", "fetch", "exec", "0", "sub")
	symIn.MustAddRow("-", "fetch", "fetch", "0", "nop")
	symIn.MustAddRow("-", "fetch", "jump", "0", "jmp")
	symIn.MustAddRow("0", "exec", "fetch", "1", "-")
	symIn.MustAddRow("1", "exec", "exec", "0", "-")
	symIn.MustAddRow("-", "jump", "fetch", "1", "-")

	ctx := context.Background()
	derive := func(p *prepared) {
		t.Helper()
		if _, err := p.constraints(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := p.analysis(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := p.symOutCodes(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []*FSM{bench.Get("dk27"), bench.Get("bbara"), symOutMachine(t), symIn} {
		opt := Options{Algorithm: Portfolio, Seed: 7, Parallelism: 4}.withDefaults()
		p, err := prepare(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := encodeWith(ctx, sched.New(opt.Parallelism), p, opt); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		derive(p)
		fresh, err := prepare(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		derive(fresh)
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"MV on-set", p.mv.On, fresh.mv.On},
			{"MV don't-care set", p.mv.Dc, fresh.mv.Dc},
			{"minimized cover", p.cover, fresh.cover},
			{"constraint sets", p.cs, fresh.cs},
			{"symbolic analysis", p.sym, fresh.sym},
			{"symbolic-output codes", p.outs, fresh.outs},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("%s: a candidate changed the shared %s", f.Name, c.what)
			}
		}
	}
}
