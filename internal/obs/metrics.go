package obs

import (
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the counter set of one tracer. The fixed fields cover the
// hot counters that explain a NOVA run; they are lock-free atomics so
// worker goroutines update them without contention. Rarer, dynamically
// named tallies (per-algorithm outcomes, pool high-water marks) live in
// the named map behind a mutex. Instrumentation in the single-owner hot
// loops (arena, searcher) accumulates into plain ints and flushes deltas
// here once per phase, so the atomics are off the innermost paths.
type Metrics struct {
	// espresso loop
	EspressoIters atomic.Int64 // EXPAND/IRREDUNDANT/REDUCE round trips

	// unate-recursion tautology checks
	TautCalls atomic.Int64

	// scratch arena cubes: freshly allocated vs recycled off free lists
	CubesAlloc  atomic.Int64
	CubesReused atomic.Int64

	// encoding searcher (face-constraint satisfaction ratio =
	// checks_ok / (checks_ok + checks_fail))
	SearchWork       atomic.Int64
	SearchBacktracks atomic.Int64
	SearchChecksOK   atomic.Int64
	SearchChecksFail atomic.Int64

	// sched pool
	PoolTasks  atomic.Int64 // tasks run on worker goroutines
	PoolInline atomic.Int64 // tasks run inline (pool full)

	mu    sync.Mutex
	named map[string]int64
	hists map[string]*Hist
}

// Add increments a named counter (e.g. "algo.gaveup.iexact_code").
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.named == nil {
		m.named = make(map[string]int64)
	}
	m.named[name] += delta
	m.mu.Unlock()
}

// Max raises the named counter to v if v is larger (gauge high-water
// marks, e.g. "pool.max_depth").
func (m *Metrics) Max(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.named == nil {
		m.named = make(map[string]int64)
	}
	if v > m.named[name] {
		m.named[name] = v
	}
	m.mu.Unlock()
}

// ObserveDur records d into the named log2-bucketed histogram in
// microseconds — the convention for the per-endpoint latency histograms
// of the serving layer ("http.latency.<endpoint>").
func (m *Metrics) ObserveDur(name string, d time.Duration) {
	m.Observe(name, d.Microseconds())
}

// Observe records v into the named log2-bucketed histogram.
func (m *Metrics) Observe(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.hists == nil {
		m.hists = make(map[string]*Hist)
	}
	h := m.hists[name]
	if h == nil {
		h = &Hist{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Hist is a power-of-two bucketed histogram: bucket i counts values v
// with bits.Len64(v) == i, i.e. bucket 0 holds v==0, bucket i≥1 holds
// 2^(i-1) <= v < 2^i. Good enough to see searcher work and backtrack
// distributions without per-sample allocation.
type Hist struct {
	Buckets [65]int64
	Count   int64
	Sum     int64
	MaxV    int64
}

// NumBuckets is the bucket count of every Hist.
const NumBuckets = 65

// BucketUpper returns the inclusive upper bound of bucket i: bucket 0
// holds only 0, bucket i≥1 holds values up to 2^i - 1, and the last
// bucket is unbounded (math.MaxInt64, rendered as +Inf). This is the
// single source of truth for bucket edges: the Prometheus exposition
// writer and the /debug/vars bucket series both render the edges it
// returns, so the two views can never drift apart.
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return math.MaxInt64
	default:
		return 1<<uint(i) - 1
	}
}

// BucketLabel renders bucket i's upper bound for exposition: the decimal
// bound for the finite buckets, "+Inf" for the last.
func BucketLabel(i int) string {
	if i >= NumBuckets-1 {
		return "+Inf"
	}
	return strconv.FormatInt(BucketUpper(i), 10)
}

func (h *Hist) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.Buckets[bits.Len64(uint64(v))]++
	h.Count++
	h.Sum += v
	if v > h.MaxV {
		h.MaxV = v
	}
}

// Counters returns every non-zero counter — fixed and named — keyed by
// a stable dotted name. Safe to call while the run is in flight.
func (m *Metrics) Counters() map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64)
	put := func(name string, v int64) {
		if v != 0 {
			out[name] = v
		}
	}
	put("espresso.iterations", m.EspressoIters.Load())
	put("tautology.calls", m.TautCalls.Load())
	put("arena.cubes_alloc", m.CubesAlloc.Load())
	put("arena.cubes_reused", m.CubesReused.Load())
	put("search.work", m.SearchWork.Load())
	put("search.backtracks", m.SearchBacktracks.Load())
	put("search.checks_ok", m.SearchChecksOK.Load())
	put("search.checks_fail", m.SearchChecksFail.Load())
	put("pool.tasks", m.PoolTasks.Load())
	put("pool.inline", m.PoolInline.Load())
	m.mu.Lock()
	for k, v := range m.named {
		put(k, v)
	}
	m.mu.Unlock()
	return out
}

// Vars returns every counter plus a flat summary of every histogram —
// <name>.count / .sum / .max and one <name>.le.<bound> series per
// non-empty bucket (cumulative, bounds from BucketLabel, so /debug/vars
// and the Prometheus exposition render identical edges) — the form the
// serving layer exposes under /debug/vars. Counters() stays
// histogram-free so run reports keep their shape.
func (m *Metrics) Vars() map[string]int64 {
	if m == nil {
		return nil
	}
	out := m.Counters()
	m.mu.Lock()
	for k, h := range m.hists {
		h.PutVars(k, out)
	}
	m.mu.Unlock()
	return out
}

// PutVars adds the histogram's summary under name to out, in the form
// Vars returns it.
func (h *Hist) PutVars(name string, out map[string]int64) {
	out[name+".count"] = h.Count
	out[name+".sum"] = h.Sum
	out[name+".max"] = h.MaxV
	var cum int64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		out[name+".le."+BucketLabel(i)] = cum
	}
}

// Histograms returns a point-in-time copy of every named histogram,
// keyed by name. Safe to call while the run is in flight.
func (m *Metrics) Histograms() map[string]Hist {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.hists) == 0 {
		return nil
	}
	out := make(map[string]Hist, len(m.hists))
	for k, h := range m.hists {
		out[k] = *h
	}
	return out
}

// PhaseStat aggregates all spans sharing a name.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration // sum of span durations (overlaps included)
	Self  time.Duration // Total minus time in direct child spans
	Min   time.Duration
	Max   time.Duration
}

// Snapshot is a point-in-time summary of a tracer: total wall time,
// every counter, and per-phase span aggregates. Attach it to results
// (Result.Telemetry) after a run.
type Snapshot struct {
	Wall     time.Duration    // tracer lifetime at snapshot
	Root     time.Duration    // sum of root (parentless) span durations
	Counters map[string]int64 // from Metrics.Counters
	Phases   []PhaseStat      // sorted by Self, descending
	Hists    map[string]Hist  // histogram copies
	Spans    int              // number of completed spans
}

// Snapshot summarizes the tracer now. The per-phase self time subtracts
// the duration of *direct* children only, so nested phases (espresso
// passes inside espresso.minimize inside nova.encode) are not double
// counted in phase tables.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]SpanRecord, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	s := &Snapshot{
		Wall:     time.Since(t.start),
		Counters: t.m.Counters(),
		Spans:    len(spans),
	}

	childTime := make(map[uint64]time.Duration, len(spans))
	for _, r := range spans {
		if r.Parent != 0 {
			childTime[r.Parent] += r.Dur
		} else {
			s.Root += r.Dur
		}
	}
	agg := make(map[string]*PhaseStat)
	for _, r := range spans {
		p := agg[r.Name]
		if p == nil {
			p = &PhaseStat{Name: r.Name, Min: r.Dur, Max: r.Dur}
			agg[r.Name] = p
		}
		p.Count++
		p.Total += r.Dur
		self := r.Dur - childTime[r.ID]
		if self < 0 {
			self = 0
		}
		p.Self += self
		if r.Dur < p.Min {
			p.Min = r.Dur
		}
		if r.Dur > p.Max {
			p.Max = r.Dur
		}
	}
	s.Phases = make([]PhaseStat, 0, len(agg))
	for _, p := range agg {
		s.Phases = append(s.Phases, *p)
	}
	sort.Slice(s.Phases, func(i, j int) bool {
		if s.Phases[i].Self != s.Phases[j].Self {
			return s.Phases[i].Self > s.Phases[j].Self
		}
		return s.Phases[i].Name < s.Phases[j].Name
	})

	t.m.mu.Lock()
	if len(t.m.hists) > 0 {
		s.Hists = make(map[string]Hist, len(t.m.hists))
		for k, h := range t.m.hists {
			s.Hists[k] = *h
		}
	}
	t.m.mu.Unlock()
	return s
}

// Phase returns the named phase aggregate, or nil.
func (s *Snapshot) Phase(name string) *PhaseStat {
	if s == nil {
		return nil
	}
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			return &s.Phases[i]
		}
	}
	return nil
}
