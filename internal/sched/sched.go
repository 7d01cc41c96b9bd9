// Package sched provides the concurrent execution engine behind the
// public encoding API: a bounded worker pool shared by every fan-out of
// one encoding run (the per-symbolic-input encodes and the per-FSM tasks
// of EncodeAll), fork/join groups with first-error-wins semantics, the
// deterministic "run candidates, keep the cheapest" join behind Best,
// Random and Portfolio, and the seed splitter that makes parallel
// randomized batches bit-identical to their serial counterparts.
//
// The pool never blocks a task submission: when every worker slot is
// busy, Go runs the task inline on the submitting goroutine. Groups may
// therefore nest freely (an EncodeAll task fans out its Best candidates
// through the same pool) without risk of deadlock, and the number of
// concurrently executing tasks stays bounded by the worker count.
package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value is not usable; use New.
type Pool struct {
	// sem holds one token per spare worker goroutine. Capacity is
	// workers-1: the goroutine that joins a group counts as the last
	// worker, running tasks inline when no spare slot is free.
	sem chan struct{}

	// telemetry — always maintained (a handful of atomic ops per task,
	// well under the cost of the goroutine handoff they annotate).
	tasks    atomic.Int64 // tasks dispatched to spare worker goroutines
	inline   atomic.Int64 // tasks run inline on the submitter (pool full)
	depth    atomic.Int64 // tasks currently executing (gauge)
	maxDepth atomic.Int64 // high-water mark of depth

	// depthHist[d] counts tasks that STARTED executing while d tasks
	// (including themselves) were executing. Recording at task start —
	// not at enqueue — is what makes the histogram reflect the true
	// concurrency of nested groups: a task queued behind a busy pool is
	// sampled when it actually runs. Depths beyond the last bucket fold
	// into it.
	depthHist [DepthBuckets]atomic.Int64
}

// DepthBuckets is the size of the pool-depth histogram: one bucket per
// exact concurrency level 0..DepthBuckets-2, the last bucket collecting
// everything deeper.
const DepthBuckets = 16

// PoolStats is a snapshot of a pool's scheduling counters.
type PoolStats struct {
	Tasks    int64 // tasks run on spare worker goroutines
	Inline   int64 // tasks run inline because no slot was free
	Depth    int64 // tasks executing at snapshot time (queue-depth gauge)
	MaxDepth int64 // most tasks ever executing at once

	// DepthHist[d] counts task starts observed at concurrency d (the
	// starting task included); the last bucket folds deeper levels in.
	DepthHist [DepthBuckets]int64
}

// Stats snapshots the pool's counters. Safe to call concurrently with
// task submission; Depth is momentary, the rest are monotonic.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Tasks:    p.tasks.Load(),
		Inline:   p.inline.Load(),
		Depth:    p.depth.Load(),
		MaxDepth: p.maxDepth.Load(),
	}
	for i := range p.depthHist {
		s.DepthHist[i] = p.depthHist[i].Load()
	}
	return s
}

// enter marks a task as executing and maintains the depth high-water
// mark and the start-depth histogram; exit undoes the gauge.
func (p *Pool) enter() {
	d := p.depth.Add(1)
	h := d
	if h >= DepthBuckets {
		h = DepthBuckets - 1
	}
	p.depthHist[h].Add(1)
	for {
		m := p.maxDepth.Load()
		if d <= m || p.maxDepth.CompareAndSwap(m, d) {
			return
		}
	}
}

func (p *Pool) exit() { p.depth.Add(-1) }

// PoolSize resolves the worker bound of one run's pool from the public
// Parallelism knob: 0 (or a negative value) selects
// runtime.GOMAXPROCS(0). It is the single sizing rule shared by the
// library entry points and the serving layer, so server capacity
// planning agrees with the library on how many workers a run may occupy.
func PoolSize(parallelism int) int {
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// New returns a pool executing at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 yields a pool
// that runs every task inline on the submitting goroutine, reproducing
// serial execution exactly.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Group is a fork/join scope over a pool: tasks submitted with Go run
// concurrently (bounded by the pool), Wait joins them, and the first
// error wins — it is returned by Wait and cancels the group's context so
// sibling tasks can stop early.
type Group struct {
	pool   *Pool
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup

	once sync.Once
	err  error
}

// Group returns a new fork/join scope whose tasks receive a context
// derived from ctx (nil means context.Background()); the context is
// canceled when any task errors or after Wait returns.
func (p *Pool) Group(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancelCause(ctx)
	return &Group{pool: p, ctx: gctx, cancel: cancel}
}

// Context returns the group's derived context.
func (g *Group) Context() context.Context { return g.ctx }

// Go submits a task. If a spare worker slot is free the task runs on its
// own goroutine; otherwise it runs inline before Go returns. Either way
// the task's error (if first) is recorded and cancels the group. Go never
// blocks waiting for a slot, so groups may nest without deadlocking.
func (g *Group) Go(fn func(ctx context.Context) error) {
	select {
	case g.pool.sem <- struct{}{}:
		g.pool.tasks.Add(1)
		g.wg.Add(1)
		go func() {
			g.pool.enter()
			defer func() {
				g.pool.exit()
				<-g.pool.sem
				g.wg.Done()
			}()
			g.record(fn(g.ctx))
		}()
	default:
		g.pool.inline.Add(1)
		g.pool.enter()
		g.record(fn(g.ctx))
		g.pool.exit()
	}
}

func (g *Group) record(err error) {
	if err == nil {
		return
	}
	g.once.Do(func() {
		g.err = err
		g.cancel(err)
	})
}

// Wait joins every submitted task and returns the first error, if any.
// The group's context is canceled before Wait returns.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel(nil)
	return g.err
}

// Gamma is the increment of a splitmix64 stream: the odd integer nearest
// 2^64/φ.
const Gamma = 0x9e3779b97f4a7c15

// SplitMix64 is one step of Vigna's splitmix64 generator: it advances the
// stream state x by Gamma and returns the finalizer of the new state, and
// that state. A stream seeded with one value yields one exact sequence.
func SplitMix64(x uint64) (value, next uint64) {
	next = x + Gamma
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), next
}

// SplitSeed derives the i-th child seed from a base seed: the splitmix64
// value at offset i of the stream from seed. Children of one base are
// pairwise distinct for i >= 0 and depend only on (seed, i), so a batch
// of randomized trials keyed by trial index produces bit-identical
// results whether the trials run serially or concurrently, in any
// completion order.
func SplitSeed(seed int64, i int) int64 {
	v, _ := SplitMix64(uint64(seed) + Gamma*uint64(i))
	return int64(v)
}

// Outcome is one task's result in a Cheapest join.
type Outcome[T any] struct {
	// Value and Cost are valid when Err is nil.
	Value T
	Cost  int64
	// Err is the task's own failure. A task the join never launched,
	// because the context was done first, carries the context's error.
	Err error
}

// Cheapest runs tasks 0..n-1 over the pool and returns every task's
// outcome together with the index of the cheapest success: the lowest
// cost, ties to the lowest index, -1 when no task succeeded. The pick
// depends only on the outcomes, never on completion order, so a serial
// pool and a parallel one pick the same task.
//
// A failed task only loses: its error stays in its Outcome and never
// cancels its siblings; the caller decides what a failure means. Once ctx
// is done no further task launches. Cheapest returns when every launched
// task has returned.
func Cheapest[T any](ctx context.Context, p *Pool, n int, run func(ctx context.Context, i int) (T, int64, error)) ([]Outcome[T], int) {
	out := make([]Outcome[T], n)
	g := p.Group(ctx)
	for i := range out {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		g.Go(func(ctx context.Context) error {
			o := &out[i]
			o.Value, o.Cost, o.Err = run(ctx, i)
			return nil
		})
	}
	g.Wait()
	win := -1
	for i, o := range out {
		if o.Err == nil && (win < 0 || o.Cost < out[win].Cost) {
			win = i
		}
	}
	return out, win
}
