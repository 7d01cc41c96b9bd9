// Package obs is the observability layer of the encoding pipeline: span
// style phase tracing, atomic counters and histograms for the hot loops
// (espresso passes, the backtracking searcher, the worker pool), and
// snapshotting for run reports. It is built on the standard library only
// and is designed around two rules:
//
//  1. Opt-in without global state: a *Tracer travels in a context.Context
//     (obs.With / obs.From) or in an Options field; nothing is recorded
//     unless a caller attached one.
//  2. The disabled path is free: with no tracer in the context, obs.Span
//     returns a nil *ActiveSpan whose methods are no-ops and performs
//     zero allocations, so the hot paths keep their PR-2 benchmark
//     numbers (guarded by TestNoopTracerZeroAlloc).
//
// Spans nest through the context: a span started inside an
// internal/sched worker task parents to the span of the goroutine that
// submitted the task, because the group context derives from the
// submitter's context. Span records are kept in memory for Snapshot and
// optionally streamed as JSON lines (one object per line) to a writer,
// so a trace file can be post-processed into per-phase tables.
package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// Tracer collects spans and counters for one run (or one batch). It is
// safe for concurrent use by the worker goroutines of a run. The zero
// value is not usable; create tracers with New.
type Tracer struct {
	start  time.Time
	nextID atomic.Uint64
	m      Metrics

	mu    sync.Mutex
	label string
	spans []SpanRecord
	w     io.Writer

	wmu sync.Mutex // serializes this tracer's line writes to w
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer { return &Tracer{start: time.Now()} }

// SetLabel names the tracer; the label is stamped on every JSON record
// (field "trace"), so several tracers can share one stream.
func (t *Tracer) SetLabel(label string) {
	t.mu.Lock()
	t.label = label
	t.mu.Unlock()
}

// SetWriter streams completed spans (and Emit events) to w as JSON
// lines. The tracer serializes its own writes, so w sees one whole line
// per Write even when the run's worker goroutines end spans at once.
// Writers shared between tracers must serialize whole lines too; wrap
// them with LockedWriter.
func (t *Tracer) SetWriter(w io.Writer) {
	t.mu.Lock()
	t.w = w
	t.mu.Unlock()
}

// Metrics returns the tracer's counter set.
func (t *Tracer) Metrics() *Metrics { return &t.m }

// With returns a context carrying the tracer. A nil tracer returns ctx
// unchanged.
func With(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// From returns the tracer carried by ctx, or nil. Safe on a nil context.
func From(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// MetricsFrom returns the counter set of the context's tracer, or nil.
// Instrumentation sites nil-check the result once and skip all
// accounting when tracing is off.
func MetricsFrom(ctx context.Context) *Metrics {
	if t := From(ctx); t != nil {
		return &t.m
	}
	return nil
}

// Attr is one span attribute: an int64 or a string value.
type Attr struct {
	Key string
	Int int64
	Str string
}

// SpanRecord is one completed span.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Start  time.Duration // offset from the tracer's start
	Dur    time.Duration
	Attrs  []Attr
}

// ActiveSpan is an in-flight span. The nil *ActiveSpan is the no-op
// span: every method is safe and free on it.
type ActiveSpan struct {
	t     *Tracer
	rec   SpanRecord
	begin time.Time
}

// Span starts a span named name under the current span of ctx, returning
// a derived context (carrying the new span for nesting) and the span.
// With no tracer in ctx — or a nil ctx — it returns ctx and nil without
// allocating; end the result unconditionally, End is nil-safe.
func Span(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	t := From(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &ActiveSpan{t: t, begin: time.Now()}
	sp.rec.ID = t.nextID.Add(1)
	sp.rec.Name = name
	sp.rec.Start = sp.begin.Sub(t.start)
	if parent, _ := ctx.Value(spanKey).(*ActiveSpan); parent != nil {
		sp.rec.Parent = parent.rec.ID
	}
	return context.WithValue(ctx, spanKey, sp), sp
}

// SetInt attaches an integer attribute (cube counts, work ticks, ...).
func (s *ActiveSpan) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Int: v})
}

// SetStr attaches a string attribute (machine name, algorithm, ...).
func (s *ActiveSpan) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Str: v})
}

// End completes the span: the record is stored on the tracer and, when
// configured, written as a JSON line. End on a nil span is a no-op.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.rec.Dur = time.Since(s.begin)
	t := s.t
	t.mu.Lock()
	t.spans = append(t.spans, s.rec)
	w, label := t.w, t.label
	t.mu.Unlock()
	if w != nil {
		t.writeJSONLine(w, spanJSON(label, s.rec))
	}
}

// Emit writes an arbitrary event record to the trace stream (type typ,
// plus the given fields) — used by the CLI tools for per-machine summary
// lines so a trace file alone can regenerate result tables. Without a
// writer it is a no-op.
func (t *Tracer) Emit(typ string, fields map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	w, label := t.w, t.label
	t.mu.Unlock()
	if w == nil {
		return
	}
	rec := map[string]any{"type": typ, "t_us": time.Since(t.start).Microseconds()}
	if label != "" {
		rec["trace"] = label
	}
	for k, v := range fields {
		rec[k] = v
	}
	t.writeJSONLine(w, rec)
}

// spanJSON builds the JSON-line representation of a span record.
func spanJSON(label string, r SpanRecord) map[string]any {
	rec := map[string]any{
		"type":     "span",
		"id":       r.ID,
		"name":     r.Name,
		"start_us": r.Start.Microseconds(),
		"dur_us":   r.Dur.Microseconds(),
	}
	if label != "" {
		rec["trace"] = label
	}
	if r.Parent != 0 {
		rec["parent"] = r.Parent
	}
	if len(r.Attrs) > 0 {
		attrs := make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			if a.Str != "" {
				attrs[a.Key] = a.Str
			} else {
				attrs[a.Key] = a.Int
			}
		}
		rec["attrs"] = attrs
	}
	return rec
}

// writeJSONLine marshals rec outside any lock and writes it as one line
// under wmu.
func (t *Tracer) writeJSONLine(w io.Writer, rec map[string]any) {
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	t.wmu.Lock()
	w.Write(b) //nolint:errcheck // tracing is best-effort by design
	t.wmu.Unlock()
}

// lockedWriter serializes whole-line writes from several tracers.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// LockedWriter wraps w so that concurrent writers emit whole lines
// without interleaving; hand the result to several tracers sharing one
// trace file.
func LockedWriter(w io.Writer) io.Writer { return &lockedWriter{w: w} }
