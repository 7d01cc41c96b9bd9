package sched

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 4
	p := New(workers)
	if got := cap(p.sem) + 1; got != workers {
		t.Fatalf("pool bound = %d, want %d", got, workers)
	}
	g := p.Group(context.Background())
	var cur, peak int32
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		g.Go(func(context.Context) error {
			n := atomic.AddInt32(&cur, 1)
			mu.Lock()
			if n > peak {
				peak = n
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&cur, -1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", peak, workers)
	}
}

func TestPoolSerialRunsInline(t *testing.T) {
	p := New(1)
	g := p.Group(context.Background())
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		// With one worker every task runs inline on this goroutine, in
		// submission order, so appending without a lock is safe.
		g.Go(func(context.Context) error {
			order = append(order, i)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial pool ran out of order: %v", order)
		}
	}
}

func TestGroupFirstErrorWinsAndCancels(t *testing.T) {
	p := New(2)
	g := p.Group(context.Background())
	boom := errors.New("boom")
	canceledSiblings := int32(0)
	g.Go(func(context.Context) error { return boom })
	for i := 0; i < 8; i++ {
		g.Go(func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				atomic.AddInt32(&canceledSiblings, 1)
			case <-time.After(2 * time.Second):
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want %v", err, boom)
	}
	if canceledSiblings == 0 {
		t.Fatal("error did not cancel sibling tasks")
	}
}

func TestGroupParentCancellation(t *testing.T) {
	p := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	g := p.Group(ctx)
	done := make(chan struct{})
	g.Go(func(ctx context.Context) error {
		<-ctx.Done()
		close(done)
		return ctx.Err()
	})
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("task did not observe parent cancellation")
	}
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
}

func TestNestedGroupsDoNotDeadlock(t *testing.T) {
	p := New(2)
	outer := p.Group(context.Background())
	var total int32
	for i := 0; i < 6; i++ {
		outer.Go(func(ctx context.Context) error {
			inner := p.Group(ctx)
			for j := 0; j < 6; j++ {
				inner.Go(func(context.Context) error {
					atomic.AddInt32(&total, 1)
					return nil
				})
			}
			return inner.Wait()
		})
	}
	finished := make(chan error, 1)
	go func() { finished <- outer.Wait() }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested groups deadlocked")
	}
	if total != 36 {
		t.Fatalf("ran %d inner tasks, want 36", total)
	}
}

func TestSplitSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(42, i)
		if s != SplitSeed(42, i) {
			t.Fatalf("SplitSeed(42, %d) not deterministic", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("SplitSeed(42, %d) == SplitSeed(42, %d)", i, prev)
		}
		seen[s] = i
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatal("different base seeds produced the same child")
	}
}

// TestSplitSeedValues pins SplitSeed's children, so the trial seeds of
// Random and of portfolio restarts cannot move with the generator's code.
func TestSplitSeedValues(t *testing.T) {
	for _, c := range []struct {
		seed int64
		i    int
		want int64
	}{
		{0, 0, -2152535657050944081},
		{1, 0, -7995527694508729151},
		{2, 0, -7541218347953203506},
		{42, 0, -4767286540954276203},
		{42, 1, 2949826092126892291},
		{42, 999, 7352439375932947048},
		{-7, 3, 2940488688193949890},
		{math.MaxInt64, 5, 2076871689085313299},
		{math.MinInt64, 0, 5196802822362493915},
		{123456789, 1000000, -5578418187712231035},
	} {
		if got := SplitSeed(c.seed, c.i); got != c.want {
			t.Errorf("SplitSeed(%d, %d) = %d, want %d", c.seed, c.i, got, c.want)
		}
	}
}

func TestPoolSize(t *testing.T) {
	if got := PoolSize(3); got != 3 {
		t.Fatalf("PoolSize(3) = %d, want 3", got)
	}
	if got := PoolSize(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("PoolSize(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := PoolSize(-1); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("PoolSize(-1) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
