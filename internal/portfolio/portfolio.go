// Package portfolio is the hedged multi-candidate racing engine behind
// nova's portfolio encoding mode: a roster of candidates (one encoding
// attempt each) races over the shared bounded pool, every candidate
// publishing its finished cost into one atomic best-(cost, index) bound.
// Candidates that provably cannot win — their sound cost lower bound is
// already beaten under the deterministic pick order — are pruned before
// launch or canceled mid-flight, and the race joins on a deterministic
// pick: the lowest cost wins, ties broken by the lowest roster index.
//
// Determinism is the package's contract, mirroring internal/sched: the
// pick depends only on the (cost, index) pairs of the successful
// candidates, each candidate's own computation is
// deterministic for its inputs, and pruning/cancellation is applied only
// to candidates whose outcome could not change the pick — a pruned
// candidate's cost is at best (Lower, index), which the bound already
// lexicographically beats. Serial pools (one worker) therefore return the
// exact winner a fully parallel race returns, byte for byte; scheduling
// affects only wall-clock time and which losers got as far as running.
//
// The package knows nothing about FSMs: candidates are closures producing
// (value, cost, error), so the racing logic is testable with stubs and
// reusable for any "cheapest answer wins" workload.
package portfolio

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"nova/internal/obs"
	"nova/internal/sched"
)

// Candidate is one roster member of a race.
type Candidate[T any] struct {
	// Label names the candidate in telemetry ("ihybrid", "iexact@3", ...).
	Label string
	// Lower is a sound lower bound on any cost Run can report: Run must
	// never return a cost below it. The tighter the bound, the earlier
	// the race can prune or cancel this candidate; 0 is always sound for
	// non-negative costs (and disables pruning in practice).
	Lower int64
	// Run computes the candidate under ctx and returns its value and
	// cost. A canceled ctx means the race proved the candidate cannot
	// win; Run should stop promptly and return any error.
	Run func(ctx context.Context) (T, int64, error)
}

// Outcome reports how one candidate fared.
type Outcome[T any] struct {
	// Value and Cost are valid when Err is nil and the candidate ran.
	Value T
	Cost  int64
	// Err is the candidate's own failure (including cancellation by the
	// race); it never aborts the siblings.
	Err error
	// Pruned marks a candidate skipped before launch: a finished sibling
	// had already made winning impossible.
	Pruned bool
	// Launched marks a candidate that actually ran (to completion or
	// cancellation).
	Launched bool
}

// Options tunes one race.
type Options struct {
	// HedgeDelay staggers the backups: candidate 0 launches immediately,
	// the rest only after the delay elapses or the primary completes,
	// whichever is first. Zero launches the whole roster at once. The
	// delay affects wall-clock only, never the pick.
	HedgeDelay time.Duration
	// Metrics, when non-nil, receives the portfolio.* counters.
	Metrics *obs.Metrics
}

// The bound packs (cost, index) into one uint64 so a CAS-min maintains
// the lexicographic minimum atomically: cost in the high bits, index in
// the low bits, smaller packed value == better (cost, index) pair.
const (
	indexBits = 20
	// MaxCandidates is the widest roster a race accepts (the index field
	// of the packed bound).
	MaxCandidates = 1<<indexBits - 1
	maxCost       = int64(1)<<(63-indexBits) - 1
)

// Bound is the shared best-(cost, index) bound of one race: the cheapest
// finished candidate, ties held by the lowest index. The zero value is an
// empty bound.
type Bound struct{ packed atomic.Uint64 }

func packBound(cost int64, index int) uint64 {
	if cost < 0 {
		cost = 0
	}
	if cost > maxCost {
		cost = maxCost
	}
	return uint64(cost)<<indexBits | uint64(index&MaxCandidates)
}

// Observe publishes a finished candidate's cost, keeping the
// lexicographic minimum of every (cost, index) observed.
func (b *Bound) Observe(cost int64, index int) {
	p := packBound(cost, index) + 1 // +1 so packed 0 means "empty"
	for {
		cur := b.packed.Load()
		if cur != 0 && cur <= p {
			return
		}
		if b.packed.CompareAndSwap(cur, p) {
			return
		}
	}
}

// Best returns the current best (cost, index); ok is false while no
// candidate has finished.
func (b *Bound) Best() (cost int64, index int, ok bool) {
	p := b.packed.Load()
	if p == 0 {
		return 0, 0, false
	}
	p--
	return int64(p >> indexBits), int(p & MaxCandidates), true
}

// Prunable reports whether a candidate with the given sound cost lower
// bound and roster index can no longer win the deterministic pick: some
// finished candidate's (cost, index) lexicographically beats the best
// this one could still achieve, (lower, index). Pruning on a true return
// never changes the race winner.
func (b *Bound) Prunable(lower int64, index int) bool {
	cost, bi, ok := b.Best()
	if !ok {
		return false
	}
	return cost < lower || (cost == lower && bi < index)
}

// Race runs the candidates over the pool and returns every outcome plus
// the winner's index (-1 when no candidate succeeded). The pick is
// deterministic: lowest cost first, ties to the lowest index; candidates
// are pruned or canceled only when that pick can no longer involve them.
// Candidate errors (including cancellations) stay in their Outcome and
// never abort siblings; the caller decides what a fully failed race
// means. Race returns when every launched candidate has returned.
func Race[T any](ctx context.Context, pool *sched.Pool, cands []Candidate[T], opt Options) ([]Outcome[T], int) {
	n := len(cands)
	if n > MaxCandidates {
		n = MaxCandidates
	}
	out := make([]Outcome[T], len(cands))
	if n == 0 {
		return out, -1
	}
	m := opt.Metrics
	var bound Bound
	g := pool.Group(ctx)
	ctxs := make([]context.Context, n)
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctxs[i], cancels[i] = context.WithCancel(g.Context())
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	// running guards the loser-cancel sweep: a finished candidate walks
	// the still-running set and cancels everyone the new bound proves out.
	var mu sync.Mutex
	running := make([]bool, n)
	sweep := func() {
		mu.Lock()
		for j := 0; j < n; j++ {
			if running[j] && bound.Prunable(cands[j].Lower, j) {
				m.Add("portfolio.canceled", 1)
				cancels[j]()
			}
		}
		mu.Unlock()
	}

	launch := func(i int, done chan<- struct{}) {
		if bound.Prunable(cands[i].Lower, i) {
			out[i].Pruned = true
			m.Add("portfolio.pruned", 1)
			if done != nil {
				close(done)
			}
			return
		}
		mu.Lock()
		running[i] = true
		mu.Unlock()
		m.Add("portfolio.launched", 1)
		g.Go(func(context.Context) error {
			v, cost, err := cands[i].Run(ctxs[i])
			out[i] = Outcome[T]{Value: v, Cost: cost, Err: err, Launched: true}
			mu.Lock()
			running[i] = false
			mu.Unlock()
			if err == nil {
				bound.Observe(cost, i)
				sweep()
			}
			if done != nil {
				close(done)
			}
			return nil
		})
	}

	if n == 1 || opt.HedgeDelay <= 0 {
		for i := 0; i < n; i++ {
			launch(i, nil)
		}
	} else {
		// Hedge: the primary runs alone until it completes or the delay
		// elapses; then the backups join the race. On a one-worker pool
		// the primary runs inline, so the delay never adds wall-clock.
		done0 := make(chan struct{})
		launch(0, done0)
		t := time.NewTimer(opt.HedgeDelay)
		select {
		case <-done0:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		for i := 1; i < n; i++ {
			launch(i, nil)
		}
	}
	g.Wait()

	win := -1
	for i := 0; i < n; i++ {
		o := &out[i]
		if o.Err != nil || !o.Launched {
			continue
		}
		if win < 0 || o.Cost < out[win].Cost {
			win = i
		}
	}
	if win >= 0 {
		m.Add("portfolio.won", 1)
	}
	return out, win
}
