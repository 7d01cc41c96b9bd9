package nova_test

// Searcher-regression guard: a pinned, fully serial, traced iexact
// encode of each suite machine must stay within a committed
// search.backtracks ceiling. The searcher is deterministic at
// Parallelism 1 with a fixed seed and budget — and memo replays restore
// the original run's counters, so a warm failed-embedding memo does not
// change the totals. A ceiling breach means a change made the pruned
// search meaningfully dumber; raise the ceiling only with a measured
// justification (see docs/BENCHMARKS.md for the current baselines).

import (
	"errors"
	"testing"

	"nova"
	"nova/internal/bench"
)

// backtrackCeiling is ~1.5x the measured search.backtracks of the
// pruned searcher (symmetry breaking + preprocessing + memo on) per
// machine, leaving headroom for benign drift while still failing well
// before the unpruned counts (2-16x higher: bbtas 1334, dk27 11302,
// lion 26, train11 6482, beecount 545, measured while a public option
// could still switch the pruning off).
var backtrackCeiling = map[string]int64{
	"bbtas":    130,  // measured 84
	"dk27":     1250, // measured 813
	"lion":     15,   // measured 8
	"shiftreg": 5,    // measured 0
	"train11":  8800, // measured 5815
	"beecount": 480,  // measured 317
}

func TestSearchBacktrackCeiling(t *testing.T) {
	for _, name := range parallelSuite {
		t.Run(name, func(t *testing.T) {
			ceiling, ok := backtrackCeiling[name]
			if !ok {
				t.Fatalf("no committed ceiling for %s", name)
			}
			f := bench.Get(name)
			tracer := nova.NewTracer()
			_, err := nova.Encode(f, nova.Options{
				Algorithm:   nova.IExact,
				Seed:        7,
				MaxWork:     200_000,
				Parallelism: 1,
				Tracer:      tracer,
			})
			if err != nil && !errors.Is(err, nova.ErrGaveUp) {
				t.Fatalf("encode: %v", err)
			}
			got := tracer.Metrics().Counters()["search.backtracks"]
			t.Logf("%s: search.backtracks=%d (ceiling %d)", name, got, ceiling)
			if got > ceiling {
				t.Errorf("%s: search.backtracks=%d exceeds committed ceiling %d — the pruned search regressed",
					name, got, ceiling)
			}
		})
	}
}

// chainCeilings pin the serial ihybrid chain (Parallelism 1, default
// MaxWork) on machines where semiexact steps are refuted without a
// search: a search.work ceiling ~1.5x the measured value, below the
// work the chain spent before the refutation existed (bbsse 203,037,
// dk512 200,662, scud 47,198), and the exact search.refuted count,
// which includes the steps whose constraint no proper face of the cube
// can host (one of scud's 11).
var chainCeilings = []struct {
	name          string
	work, refuted int64
}{
	{"bbsse", 65_000, 4},  // measured 43,033
	{"dk512", 121_000, 3}, // measured 80,659
	{"scud", 22_000, 11},  // measured 14,819
}

// TestSearchChainCeiling encodes each machine twice in one process. The
// second encode replays its semiexact verdicts from the memo, and a
// replay must count search.work and search.refuted as if executed.
func TestSearchChainCeiling(t *testing.T) {
	for _, want := range chainCeilings {
		t.Run(want.name, func(t *testing.T) {
			for run := 1; run <= 2; run++ {
				tracer := nova.NewTracer()
				if _, err := nova.Encode(bench.Get(want.name), nova.Options{
					Algorithm:   nova.IHybrid,
					Parallelism: 1,
					Tracer:      tracer,
				}); err != nil {
					t.Fatalf("encode: %v", err)
				}
				c := tracer.Metrics().Counters()
				work, refuted := c["search.work"], c["search.refuted"]
				t.Logf("run %d: search.work=%d (ceiling %d) search.refuted=%d", run, work, want.work, refuted)
				if work > want.work {
					t.Errorf("run %d: search.work=%d exceeds committed ceiling %d", run, work, want.work)
				}
				if refuted != want.refuted {
					t.Errorf("run %d: search.refuted=%d, want %d", run, refuted, want.refuted)
				}
				if run == 2 && c["search.memo.hit"] == 0 {
					t.Error("the second encode did not replay from the search memo")
				}
			}
		})
	}
}
