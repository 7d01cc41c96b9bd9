package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nova"
)

// reqObs accumulates the observable facts of one admitted request as it
// moves through the handler chain: identity, timing split (queue wait vs
// engine time vs handler total), cache interaction, outcome. It lives on
// the wrapper's stack and is threaded to the handlers by pointer, so the
// request path performs no per-request observability allocation beyond
// the (opt-in) request-ID string; everything it feeds — RED histograms,
// drain accounting, the flight recorder, the access log — happens once,
// in Server.finishObs, after the handler returned.
type reqObs struct {
	id       string
	endpoint string
	start    time.Time     // wall-clock arrival
	total    time.Duration // handler time (post-admission)
	status   int           // final HTTP status, set by writeBody/writeError (0 = nothing written)
	errKind  string        // nova wire error kind of a failed request
	pri      priority      // X-Nova-Priority criticality class
	trace    bool          // per-request trace opt-in (?trace=1 / header)
	encodeObs
}

// encodeObs is what one pass through encodeCached observed. The point
// endpoint copies it into its reqObs whole; the batch endpoint sums its
// items' queue and engine times.
type encodeObs struct {
	queue   time.Duration // admission wait
	encode  time.Duration // engine time (only when this request led a run)
	cache   string        // "hit", "miss", "follower", "" (no cache path)
	machine string        // cache-key digest prefix (content address)
	algo    string        // requested algorithm
	phases  []nova.WirePhase
}

// requestID returns the caller-supplied X-Request-ID when it is sane, or
// a fresh process-unique ID (random server prefix + sequence number).
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && validRequestID(id) {
		return id
	}
	return s.ridPrefix + "-" + strconv.FormatUint(s.ridSeq.Add(1), 10)
}

// validRequestID bounds caller-supplied IDs: printable ASCII, no spaces,
// at most 64 bytes — enough for every tracing convention, and safe to
// echo into headers and log lines.
func validRequestID(id string) bool {
	if len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// newRIDPrefix draws the per-process request-ID prefix.
func newRIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "novad"
	}
	return hex.EncodeToString(b[:])
}

// traceRequested reports the per-request trace opt-in: ?trace=1 or the
// X-Nova-Trace: 1 header. The query string is only parsed when it can
// possibly match, keeping the common path allocation-free.
func traceRequested(r *http.Request) bool {
	if r.Header.Get("X-Nova-Trace") == "1" {
		return true
	}
	if !strings.Contains(r.URL.RawQuery, "trace=") {
		return false
	}
	return r.URL.Query().Get("trace") == "1"
}

// finishObs settles one admitted request: the RED metrics (queue-wait
// and engine-time histograms, error-kind counters), the drain accounting
// (admitted == completed + failed + canceled), the flight recorder, and
// the structured access log. The total-latency histogram is observed by
// the caller (it predates this layer and keeps its key).
func (s *Server) finishObs(ep *endpointKeys, ro *reqObs) {
	m := s.metrics
	m.ObserveDur(ep.queue, ro.queue)
	if ro.encode > 0 {
		m.ObserveDur(ep.encode, ro.encode)
	}
	switch {
	case ro.status == 0 || ro.status == statusClientClosedRequest:
		s.canceled.Add(1)
	case ro.status < 400:
		s.completed.Add(1)
	default:
		s.failed.Add(1)
	}
	if ro.errKind != "" {
		m.Add(ep.errors+ro.errKind, 1)
	}
	if s.cfg.DisableRequestObs {
		return
	}
	s.recorder.consider(RequestRecord{
		ID:           ro.id,
		Endpoint:     ro.endpoint,
		Time:         ro.start,
		Status:       ro.status,
		Cache:        ro.cache,
		Machine:      ro.machine,
		Algorithm:    ro.algo,
		ErrorKind:    ro.errKind,
		QueueMicros:  ro.queue.Microseconds(),
		EncodeMicros: ro.encode.Microseconds(),
		TotalMicros:  ro.total.Microseconds(),
		Phases:       ro.phases,
	})
	if s.cfg.AccessLog && s.cfg.Logger != nil {
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
			slog.String("id", ro.id),
			slog.String("endpoint", ro.endpoint),
			slog.Int("status", ro.status),
			slog.String("cache", ro.cache),
			slog.String("machine", ro.machine),
			slog.String("algorithm", ro.algo),
			slog.String("error_kind", ro.errKind),
			slog.Int64("queue_us", ro.queue.Microseconds()),
			slog.Int64("encode_us", ro.encode.Microseconds()),
			slog.Int64("total_us", ro.total.Microseconds()),
		)
	}
}

// endpointKeys pre-concatenates the per-endpoint metric names once at
// mux registration, so the per-request path performs no string building
// (the seed built "http.requests."+endpoint on every request; this layer
// must not add to that, so it removes it instead).
type endpointKeys struct {
	name     string // "/v1/encode"
	requests string // "http.requests./v1/encode"
	latency  string // "http.latency./v1/encode"
	queue    string // "http.queue_wait./v1/encode"
	encode   string // "http.encode./v1/encode"
	errors   string // "http.errors./v1/encode." (kind appended on failures)
}

func endpointKeysOf(endpoint string) *endpointKeys {
	return &endpointKeys{
		name:     endpoint,
		requests: "http.requests." + endpoint,
		latency:  "http.latency." + endpoint,
		queue:    "http.queue_wait." + endpoint,
		encode:   "http.encode." + endpoint,
		errors:   "http.errors." + endpoint + ".",
	}
}
