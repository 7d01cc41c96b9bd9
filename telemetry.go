package nova

import (
	"fmt"

	"nova/internal/obs"
	"nova/internal/sched"
)

// Tracer collects the telemetry of one encoding run (or one EncodeAll
// batch): span-style phase timings and the counters that explain NOVA's
// behavior (espresso iterations, tautology calls, searcher backtracks,
// pool scheduling). Create one with NewTracer, set it on
// Options.Tracer, and read Result.Telemetry (or Tracer.Snapshot) after
// the run. A Tracer may be shared by several runs to aggregate them;
// there is no global tracer — runs without one record nothing and pay
// nothing.
type Tracer = obs.Tracer

// TelemetrySnapshot summarizes a tracer: wall time, per-phase span
// aggregates (with self times, so nested phases are not double counted),
// and every counter.
type TelemetrySnapshot = obs.Snapshot

// PhaseStat is one phase aggregate of a TelemetrySnapshot.
type PhaseStat = obs.PhaseStat

// NewTracer returns an empty tracer whose clock starts now. Use
// Tracer.SetWriter to stream spans as JSON lines and Tracer.SetLabel to
// tag the stream when several tracers share one writer.
func NewTracer() *Tracer { return obs.New() }

// flushPoolStats folds a run's pool scheduling counters into its
// metrics. Each EncodeContext / EncodeAll call owns a fresh pool, so the
// totals are exactly that run's activity.
func flushPoolStats(m *obs.Metrics, pool *sched.Pool) {
	ps := pool.Stats()
	if ps.Tasks != 0 {
		m.PoolTasks.Add(ps.Tasks)
	}
	if ps.Inline != 0 {
		m.PoolInline.Add(ps.Inline)
	}
	if ps.MaxDepth != 0 {
		m.Max("pool.max_depth", ps.MaxDepth)
	}
	for d, n := range ps.DepthHist {
		if n != 0 {
			m.Add(fmt.Sprintf("pool.depth.%d", d), n)
		}
	}
}

// outcomeOf classifies a run's error for the per-algorithm tallies.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case isGaveUp(err):
		return "gaveup"
	case isCanceled(err):
		return "canceled"
	default:
		return "error"
	}
}
