package portfolio

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nova/internal/obs"
	"nova/internal/sched"
)

// fixed returns a candidate that always succeeds with the given cost.
func fixed(cost int64) Candidate[int64] {
	return Candidate[int64]{
		Run: func(context.Context) (int64, int64, error) { return cost, cost, nil },
	}
}

func TestBoundPackRoundTrip(t *testing.T) {
	var b Bound
	if _, _, ok := b.Best(); ok {
		t.Fatal("empty bound reports a best")
	}
	b.Observe(0, 0) // cost 0 must be representable despite the +1 sentinel
	if c, i, ok := b.Best(); !ok || c != 0 || i != 0 {
		t.Fatalf("Best() = (%d,%d,%t), want (0,0,true)", c, i, ok)
	}
	var b2 Bound
	b2.Observe(maxCost+5, 3) // clamps, stays sound
	if c, i, ok := b2.Best(); !ok || c != maxCost || i != 3 {
		t.Fatalf("clamped Best() = (%d,%d,%t)", c, i, ok)
	}
	b2.Observe(-7, 2) // negative clamps to 0
	if c, _, _ := b2.Best(); c != 0 {
		t.Fatalf("negative Observe gave cost %d", c)
	}
}

// TestBoundLexicographicMin checks that Observe keeps the (cost, index)
// lexicographic minimum: lower cost always wins, equal cost keeps the
// lower index regardless of arrival order.
func TestBoundLexicographicMin(t *testing.T) {
	var b Bound
	b.Observe(10, 5)
	b.Observe(10, 2) // same cost, lower index: takes over
	if c, i, _ := b.Best(); c != 10 || i != 2 {
		t.Fatalf("Best() = (%d,%d), want (10,2)", c, i)
	}
	b.Observe(10, 7) // same cost, higher index: ignored
	if _, i, _ := b.Best(); i != 2 {
		t.Fatalf("higher index displaced the bound")
	}
	b.Observe(9, 9) // lower cost: wins despite higher index
	if c, i, _ := b.Best(); c != 9 || i != 9 {
		t.Fatalf("Best() = (%d,%d), want (9,9)", c, i)
	}
}

func TestBoundPrunable(t *testing.T) {
	var b Bound
	if b.Prunable(0, 3) {
		t.Fatal("empty bound pruned a candidate")
	}
	b.Observe(10, 2)
	cases := []struct {
		lower int64
		index int
		want  bool
	}{
		{11, 5, true},  // can at best cost 11 > 10: out
		{10, 5, true},  // ties at 10, but index 2 < 5 holds the tie: out
		{10, 1, false}, // ties at 10 and index 1 < 2 would win the tie: keep
		{9, 5, false},  // could strictly beat the bound: keep
		{0, 7, false},  // trivial lower bound never prunes
	}
	for _, c := range cases {
		if got := b.Prunable(c.lower, c.index); got != c.want {
			t.Errorf("Prunable(%d, %d) = %t, want %t", c.lower, c.index, got, c.want)
		}
	}
}

// TestRacePicksLowestCost checks the deterministic pick on serial and
// parallel pools: lowest cost wins, ties go to the lowest index.
func TestRacePicksLowestCost(t *testing.T) {
	cands := []Candidate[int64]{fixed(30), fixed(10), fixed(20), fixed(10)}
	for _, workers := range []int{1, 4} {
		out, win := Race(context.Background(), sched.New(workers), cands, Options{})
		if win != 1 {
			t.Fatalf("workers=%d: winner %d, want 1 (cost tie broken by index)", workers, win)
		}
		if out[win].Cost != 10 || out[win].Value != 10 {
			t.Fatalf("workers=%d: winning outcome %+v", workers, out[win])
		}
		for i, o := range out {
			if !o.Launched && !o.Pruned {
				t.Fatalf("workers=%d: candidate %d neither launched nor pruned", workers, i)
			}
		}
	}
}

// TestRaceFailuresLose checks that candidate errors only lose the race,
// and an all-failed race reports no winner while keeping every error.
func TestRaceFailuresLose(t *testing.T) {
	boom := errors.New("boom")
	failing := Candidate[int64]{Run: func(context.Context) (int64, int64, error) { return 0, 0, boom }}
	out, win := Race(context.Background(), sched.New(2), []Candidate[int64]{failing, fixed(42)}, Options{})
	if win != 1 || out[0].Err != boom {
		t.Fatalf("win=%d out[0].Err=%v", win, out[0].Err)
	}
	out, win = Race(context.Background(), sched.New(2), []Candidate[int64]{failing, failing}, Options{})
	if win != -1 {
		t.Fatalf("all-failed race reported winner %d", win)
	}
	for i, o := range out {
		if o.Err != boom {
			t.Fatalf("outcome %d lost its error: %+v", i, o)
		}
	}
}

// TestRacePrunesAtLaunch: on a serial pool candidates run in roster
// order, so a tight early success must prune later candidates whose
// lower bound cannot beat it — without changing the winner.
func TestRacePrunesAtLaunch(t *testing.T) {
	var ran atomic.Int64
	counted := func(cost, lower int64) Candidate[int64] {
		return Candidate[int64]{
			Lower: lower,
			Run: func(context.Context) (int64, int64, error) {
				ran.Add(1)
				return cost, cost, nil
			},
		}
	}
	m := &obs.Metrics{}
	cands := []Candidate[int64]{
		counted(5, 5), // wins immediately at its own lower bound
		counted(5, 5), // ties at best; index 0 holds the tie: prunable
		counted(4, 6), // lower bound 6 > 5: prunable (cost field never used)
		counted(3, 2), // could still beat 5: must run
	}
	out, win := Race(context.Background(), sched.New(1), cands, Options{Metrics: m})
	if win != 3 || out[3].Cost != 3 {
		t.Fatalf("win=%d out=%+v", win, out)
	}
	if !out[1].Pruned || !out[2].Pruned {
		t.Fatalf("prunable candidates ran: %+v", out)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("%d candidates ran, want 2", got)
	}
	if c := m.Counters()["portfolio.pruned"]; c != 2 {
		t.Fatalf("portfolio.pruned = %d, want 2", c)
	}
}

// TestRaceCancelsLosers: a parallel race cancels a slow candidate whose
// lower bound a finished sibling has beaten.
func TestRaceCancelsLosers(t *testing.T) {
	slowStarted := make(chan struct{})
	slow := Candidate[int64]{
		Lower: 100, // provably worse than the fast sibling's 10
		Run: func(ctx context.Context) (int64, int64, error) {
			close(slowStarted)
			select {
			case <-ctx.Done():
				return 0, 0, ctx.Err()
			case <-time.After(30 * time.Second):
				return 100, 100, nil
			}
		},
	}
	fast := Candidate[int64]{
		Run: func(context.Context) (int64, int64, error) {
			<-slowStarted // guarantee the slow candidate is mid-flight
			return 10, 10, nil
		},
	}
	start := time.Now()
	out, win := Race(context.Background(), sched.New(4), []Candidate[int64]{slow, fast}, Options{})
	if win != 1 {
		t.Fatalf("winner %d, want 1", win)
	}
	if out[0].Err == nil {
		t.Fatalf("slow loser finished instead of being canceled: %+v", out[0])
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("race took %v; loser cancellation did not fire", elapsed)
	}
}

// TestRaceHedgeDelayLaunchesBackups: with a hedging delay the backups
// still launch (and can win) once the primary completes.
func TestRaceHedgeDelayLaunchesBackups(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cands := []Candidate[int64]{fixed(50), fixed(20), fixed(30)}
		start := time.Now()
		out, win := Race(context.Background(), sched.New(workers), cands, Options{HedgeDelay: time.Hour})
		if win != 1 {
			t.Fatalf("workers=%d: winner %d, want 1", workers, win)
		}
		for i, o := range out {
			if !o.Launched {
				t.Fatalf("workers=%d: backup %d never launched", workers, i)
			}
		}
		// The primary completes instantly, so the hour-long delay must
		// not be served out.
		if elapsed := time.Since(start); elapsed > time.Minute {
			t.Fatalf("hedge delay was served in full: %v", elapsed)
		}
	}
}

// TestRaceCanceledContext: a dead context fails the in-flight candidates
// but already-finished ones still decide a winner.
func TestRaceCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cands := []Candidate[int64]{
		fixed(40),
		{Run: func(ctx context.Context) (int64, int64, error) {
			cancel() // dies after the primary already finished
			<-ctx.Done()
			return 0, 0, ctx.Err()
		}},
	}
	out, win := Race(ctx, sched.New(1), cands, Options{})
	if win != 0 {
		t.Fatalf("winner %d, want the finished candidate 0 (outcomes %+v)", win, out)
	}
	if out[1].Err == nil {
		t.Fatal("canceled candidate reported success")
	}
}

// TestRaceEmpty covers the degenerate rosters.
func TestRaceEmpty(t *testing.T) {
	out, win := Race[int64](context.Background(), sched.New(1), nil, Options{})
	if win != -1 || len(out) != 0 {
		t.Fatalf("empty race: win=%d len=%d", win, len(out))
	}
}
