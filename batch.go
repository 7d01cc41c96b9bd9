package nova

import (
	"context"
	"errors"
	"fmt"

	"nova/internal/obs"
	"nova/internal/sched"
)

// EncodeAll encodes a batch of machines concurrently over one shared
// bounded worker pool of opt.Parallelism workers (0 selects GOMAXPROCS).
// The same Options apply to every machine; results[i] corresponds to
// fsms[i]. Invalid Options (or a nil fsms entry) reject the whole batch
// up front with an error matching errors.Is(err, ErrBadOptions) — no
// machine runs.
//
// Partial-results contract: a per-machine failure does NOT abort the
// batch. The remaining machines still run; the failed machine's slot is
// nil (or, for an ErrGaveUp run, the partial Result the searcher
// produced), and EncodeAll returns the non-nil results slice together
// with every per-machine error joined into one (match the causes with
// errors.Is — ErrUnencodable, ErrGaveUp — and split them with
// errors.Join's Unwrap() []error if per-machine attribution is needed;
// each branch is wrapped with its machine's name). Cancellation is the
// exception: when ctx is canceled or its deadline expires the remaining
// runs stop, the results slice is nil, and the error matches
// errors.Is(err, ErrCanceled).
//
// Every run is deterministic under a fixed Options.Seed: each machine's
// random trials and candidate joins are independent of scheduling, so a
// batch produces the same Results as encoding the machines one at a
// time.
//
// With Options.Tracer set, the whole batch records under one
// "nova.batch" root span with a per-machine "nova.encode" child each,
// and every returned Result carries the shared batch snapshot in
// Result.Telemetry (per-machine attribution comes from the span
// attributes; use one tracer per EncodeContext call for fully separate
// snapshots).
func EncodeAll(ctx context.Context, fsms []*FSM, opt Options) ([]*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	for i, f := range fsms {
		if f == nil {
			return nil, fmt.Errorf("%w: EncodeAll: fsms[%d] is nil", ErrBadOptions, i)
		}
	}
	pool := sched.New(opt.Parallelism)
	results := make([]*Result, len(fsms))
	errs := make([]error, len(fsms))
	t := opt.Tracer
	ctx = obs.With(ctx, t) // no-op when t is nil
	bctx, bsp := obs.Span(ctx, "nova.batch")
	bsp.SetInt("machines", int64(len(fsms)))
	g := pool.Group(bctx)
	for i, f := range fsms {
		g.Go(func(ctx context.Context) error {
			r, err := encodeObserved(ctx, pool, f, opt, t)
			results[i] = r // partial Result on ErrGaveUp, nil on other failures
			if err != nil {
				if f.Name != "" {
					err = fmt.Errorf("%s: %w", f.Name, err)
				}
				if isCanceled(err) {
					// Cancellation aborts the batch: returning the error
					// cancels the group so sibling machines stop early.
					return err
				}
				errs[i] = err
			}
			return nil
		})
	}
	werr := g.Wait()
	bsp.End()
	if t != nil {
		flushPoolStats(t.Metrics(), pool)
	}
	if werr != nil {
		return nil, werr
	}
	if t != nil {
		snap := t.Snapshot()
		for _, r := range results {
			if r != nil {
				r.Telemetry = snap
			}
		}
	}
	return results, errors.Join(errs...)
}
