package sched

import (
	"context"
	"errors"
	"testing"
)

// fixed is a task that always succeeds with its index's cost.
func fixed(costs ...int64) func(context.Context, int) (int64, int64, error) {
	return func(_ context.Context, i int) (int64, int64, error) { return costs[i], costs[i], nil }
}

// TestRacePicksLowestCost checks the deterministic pick on serial and
// parallel pools: lowest cost wins, ties go to the lowest index.
func TestRacePicksLowestCost(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, win := Cheapest(context.Background(), New(workers), 4, fixed(30, 10, 20, 10))
		if win != 1 {
			t.Fatalf("workers=%d: winner %d, want 1 (cost tie broken by index)", workers, win)
		}
		if out[win].Cost != 10 || out[win].Value != 10 {
			t.Fatalf("workers=%d: winning outcome %+v", workers, out[win])
		}
		for i, o := range out {
			if o.Err != nil || o.Value != o.Cost {
				t.Fatalf("workers=%d: task %d outcome %+v", workers, i, o)
			}
		}
	}
}

// TestRaceFailuresLose checks that task errors only lose the join, and
// an all-failed join reports no winner while keeping every error.
func TestRaceFailuresLose(t *testing.T) {
	boom := errors.New("boom")
	run := func(fail ...bool) func(context.Context, int) (int64, int64, error) {
		return func(_ context.Context, i int) (int64, int64, error) {
			if fail[i] {
				return 0, 0, boom
			}
			return 42, 42, nil
		}
	}
	out, win := Cheapest(context.Background(), New(2), 2, run(true, false))
	if win != 1 || out[0].Err != boom {
		t.Fatalf("win=%d out[0].Err=%v", win, out[0].Err)
	}
	out, win = Cheapest(context.Background(), New(2), 2, run(true, true))
	if win != -1 {
		t.Fatalf("all-failed join reported winner %d", win)
	}
	for i, o := range out {
		if o.Err != boom {
			t.Fatalf("outcome %d lost its error: %+v", i, o)
		}
	}
}

// TestRaceCanceledContext: a dead context fails the in-flight task, but
// an already-finished one still decides the winner.
func TestRaceCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out, win := Cheapest(ctx, New(1), 2, func(ctx context.Context, i int) (int64, int64, error) {
		if i == 0 {
			return 40, 40, nil
		}
		cancel() // dies after task 0 already finished
		<-ctx.Done()
		return 0, 0, ctx.Err()
	})
	if win != 0 {
		t.Fatalf("winner %d, want the finished task 0 (outcomes %+v)", win, out)
	}
	if out[1].Err == nil {
		t.Fatal("canceled task reported success")
	}
}

// TestRaceEmpty covers the degenerate join.
func TestRaceEmpty(t *testing.T) {
	out, win := Cheapest(context.Background(), New(1), 0, fixed())
	if win != -1 || len(out) != 0 {
		t.Fatalf("empty join: win=%d len=%d", win, len(out))
	}
}

// TestCheapestStopsLaunchingOnceCanceled: on a one-worker pool every
// task runs inline in index order, so when task 0 cancels the context no
// later task may run; each of them reports the context's error.
func TestCheapestStopsLaunchingOnceCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1 << 10
	ran := 0
	out, win := Cheapest(ctx, New(1), n, func(_ context.Context, i int) (int64, int64, error) {
		ran++
		if i == 0 {
			cancel()
		}
		return 1, 1, nil
	})
	if ran != 1 {
		t.Fatalf("%d tasks ran after task 0 canceled the join, want 1", ran)
	}
	if win != 0 {
		t.Fatalf("winner %d, want the finished task 0", win)
	}
	for i := 1; i < n; i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Fatalf("unlaunched task %d has error %v, want context.Canceled", i, out[i].Err)
		}
	}
}
