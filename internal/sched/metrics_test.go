package sched

import (
	"context"
	"sync"
	"testing"
)

// TestPoolStatsDeterministic2Worker pins the pool's counters under a
// fully deterministic schedule. With New(2) the sem has capacity 1, so:
// the first Go takes the slot and spawns a worker goroutine; while that
// worker is parked, every further Go finds the pool full and runs inline
// on the submitting goroutine. The inline-fallback counter and the
// queue-depth gauge are therefore exact, not statistical.
func TestPoolStatsDeterministic2Worker(t *testing.T) {
	p := New(2)

	s := p.Stats()
	if s != (PoolStats{}) {
		t.Fatalf("fresh pool stats = %+v, want zeros", s)
	}

	g := p.Group(context.Background())

	started := make(chan struct{})
	release := make(chan struct{})
	// Task 1: takes the only spare slot and parks.
	g.Go(func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started // worker is executing: depth gauge must read 1

	if s := p.Stats(); s.Tasks != 1 || s.Inline != 0 || s.Depth != 1 {
		t.Fatalf("after spawned task: %+v, want Tasks=1 Inline=0 Depth=1", s)
	}

	// Tasks 2..4: pool full, must run inline (and have returned by the
	// time Go returns, so Depth is back to 1 afterwards).
	for i := 0; i < 3; i++ {
		ran := false
		g.Go(func(context.Context) error {
			ran = true
			if d := p.Stats().Depth; d != 2 {
				t.Errorf("depth during inline task = %d, want 2", d)
			}
			return nil
		})
		if !ran {
			t.Fatalf("task %d did not run inline on a full pool", i+2)
		}
	}

	if s := p.Stats(); s.Tasks != 1 || s.Inline != 3 || s.Depth != 1 || s.MaxDepth != 2 {
		t.Fatalf("after inline tasks: %+v, want Tasks=1 Inline=3 Depth=1 MaxDepth=2", s)
	}

	close(release)
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Tasks != 1 || s.Inline != 3 || s.Depth != 0 || s.MaxDepth != 2 {
		t.Fatalf("after Wait: %+v, want Tasks=1 Inline=3 Depth=0 MaxDepth=2", s)
	}

	// The histogram samples depth at task START: the parked worker began
	// alone (depth 1); each inline task began alongside it (depth 2).
	// Recording at enqueue time would instead have credited the inline
	// tasks to whatever the queue looked like before they ran.
	s = p.Stats()
	if s.DepthHist[1] != 1 || s.DepthHist[2] != 3 {
		t.Fatalf("depth histogram = %v, want [1]=1 [2]=3", s.DepthHist)
	}
	for i, n := range s.DepthHist {
		if i != 1 && i != 2 && n != 0 {
			t.Fatalf("unexpected histogram bucket [%d]=%d (%v)", i, n, s.DepthHist)
		}
	}
}

// TestPoolStatsSerialPool checks that a Parallelism=1 pool runs every
// task inline and never spawns.
func TestPoolStatsSerialPool(t *testing.T) {
	p := New(1)
	g := p.Group(context.Background())
	for i := 0; i < 5; i++ {
		g.Go(func(context.Context) error { return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Tasks != 0 || s.Inline != 5 || s.MaxDepth != 1 {
		t.Fatalf("serial pool stats = %+v, want Tasks=0 Inline=5 MaxDepth=1", s)
	}
	if s := p.Stats(); s.DepthHist[1] != 5 {
		t.Fatalf("serial pool depth histogram = %v, want [1]=5", s.DepthHist)
	}
}

// TestPoolStatsRace hammers counters from many groups at once; run with
// -race this proves the accounting introduces no data race, and the
// monotonic totals must still add up exactly.
func TestPoolStatsRace(t *testing.T) {
	p := New(4)
	const groups, tasks = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < groups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := p.Group(context.Background())
			for j := 0; j < tasks; j++ {
				g.Go(func(context.Context) error {
					_ = p.Stats()
					return nil
				})
			}
			if err := g.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.Tasks+s.Inline != groups*tasks {
		t.Fatalf("Tasks+Inline = %d, want %d (stats %+v)", s.Tasks+s.Inline, groups*tasks, s)
	}
	if s.Depth != 0 {
		t.Fatalf("Depth after quiescence = %d, want 0", s.Depth)
	}
	if s.MaxDepth < 1 || s.MaxDepth > 4+groups {
		t.Fatalf("MaxDepth = %d out of plausible range", s.MaxDepth)
	}
	var hist int64
	for _, n := range s.DepthHist {
		hist += n
	}
	if hist != s.Tasks+s.Inline {
		t.Fatalf("depth histogram sums to %d, want Tasks+Inline = %d", hist, s.Tasks+s.Inline)
	}
}
