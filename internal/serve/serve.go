// Package serve is the network serving layer of the reproduction: an
// HTTP/JSON front end over the concurrent encoding engine, designed for
// heavy repeated traffic.
//
//	POST /v1/encode        one machine     (nova.Request  -> nova.Response)
//	POST /v1/encode/batch  many machines   (BatchRequest  -> BatchResponse)
//	POST /v1/verify        check a code    (nova.VerifyRequest -> nova.VerifyResponse)
//	GET  /v1/healthz       liveness / drain state
//	GET  /debug/vars       counters, cache and latency metrics (expvar-style JSON)
//	GET  /debug/pprof/     runtime profiles
//
// Three mechanisms make the layer production-shaped:
//
//  1. Content-addressed result caching. NOVA encodings are pure
//     functions of the KISS2 source and the result-determining options,
//     so responses are cached under nova.Request.CacheKey (a SHA-256 of
//     the canonical machine text and normalized options) in a sharded,
//     byte-bounded LRU; repeated requests are served byte-identical
//     without a second engine run, and concurrent identical requests
//     collapse onto one run (singleflight).
//  2. Admission control with priority-aware load shedding. A bounded
//     semaphore caps concurrent engine work — cache hits bypass it, so
//     cached requests are served even under pressure. A saturated server
//     answers 429 + Retry-After instead of queueing without bound, and
//     sheds selectively: low-criticality requests (X-Nova-Priority: low)
//     shed immediately, expensive searches (iexact, portfolio, best,
//     iovariant) shed before cheap heuristics queue, and high-criticality
//     requests always get the full queue wait. Every request runs under a
//     deadline (?timeout= up to the configured cap, else the server
//     default), and every response carries X-Nova-Retry-Safe: encodes
//     are pure, so retrying is always side-effect free.
//  3. Graceful drain. Drain flips the server into draining mode:
//     /v1/healthz reports 503 (so load balancers stop routing), new work
//     is refused with 503 + Retry-After, and in-flight requests finish
//     normally (the process owner pairs this with http.Server.Shutdown).
//  4. Deterministic fault injection (Config.FaultInjection, off by
//     default): seeded per-request draws inject latency, 503s and
//     dropped connections on the POST endpoints, so client retry, hedge
//     and breaker paths are testable without flakiness. Disabled, the
//     middleware is provably absent — handlers are registered unwrapped.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"nova"
	"nova/internal/obs"
	"nova/internal/sched"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// CacheBytes bounds the result cache payload (default 64 MiB).
	CacheBytes int64
	// MaxInflight caps concurrently admitted requests (default
	// sched.PoolSize(0), i.e. GOMAXPROCS).
	MaxInflight int
	// QueueWait is how long an arriving request may wait for an
	// admission slot before the 429 (default 100ms; negative = reject
	// immediately).
	QueueWait time.Duration
	// DefaultTimeout is the per-request deadline when the client sends
	// no ?timeout= (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested ?timeout= (default 2m).
	MaxTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 4 MiB).
	MaxBodyBytes int64
	// MaxBatch bounds the machines of one batch request (default 64).
	MaxBatch int
	// Parallelism sets the per-encode worker bound
	// (nova.Options.Parallelism). The default is 1: under concurrent
	// traffic, one worker per encode maximizes throughput, and admission
	// — not per-run fan-out — owns the machine. Raise it for
	// latency-sensitive, low-QPS deployments; sched.PoolSize(Parallelism)
	// workers per run times MaxInflight bounds total engine goroutines.
	Parallelism int
	// Logger, when non-nil, receives one structured warning per failed
	// request — and, with AccessLog, one access line per request.
	Logger *slog.Logger
	// AccessLog emits one structured Info line per admitted request to
	// Logger: request ID, endpoint, status, cache state, machine hash,
	// and the queue/encode/total latency split.
	AccessLog bool
	// RecorderSize caps each ring of the slow/error flight recorder
	// served at GET /debug/requests (the N slowest and the N most recent
	// failed requests). 0 selects the default 32; negative disables the
	// recorder.
	RecorderSize int
	// DisableRequestObs turns off the per-request observability
	// decoration: request IDs, the flight recorder, the access log, and
	// the ?trace=1 opt-in. RED metrics and the drain accounting stay on
	// (they are plain counters with no per-request heap cost). The
	// disabled path performs no per-request observability allocation —
	// guarded by TestRequestObsDisabledAllocFree.
	DisableRequestObs bool
	// FaultInjection, when non-nil, arms the deterministic fault-
	// injection middleware on the POST endpoints (see FaultConfig). Nil —
	// the default — registers the handlers unwrapped: the disabled
	// middleware is a structural no-op, not a rate check.
	FaultInjection *FaultConfig
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = sched.PoolSize(0)
	}
	if c.QueueWait == 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.QueueWait < 0 {
		c.QueueWait = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.RecorderSize == 0 {
		c.RecorderSize = 32
	}
	if c.RecorderSize < 0 {
		c.RecorderSize = 0
	}
	return c
}

// encodeFunc / verifyFunc are the engine entry points, fields so the
// httptest suite can substitute deterministic stubs.
type encodeFunc func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error)
type verifyFunc func(ctx context.Context, f *nova.FSM, asg nova.Assignment) error

// Server is the HTTP serving layer. Create with New; it implements
// http.Handler.
type Server struct {
	cfg      Config
	metrics  *obs.Metrics // HTTP counters and latency histograms
	cache    *Cache
	flights  flights
	sem      chan struct{}
	pool     *sched.Pool // batch fan-out, sized like the admission bound
	recorder *recorder   // slow/error flight recorder (GET /debug/requests)

	draining atomic.Bool
	inflight atomic.Int64
	encodes  atomic.Int64 // actual engine runs (cache misses that ran)

	// Drain accounting: every request admitted past the semaphore ends
	// as exactly one of completed (2xx/3xx), failed (4xx/5xx) or
	// canceled (client gone / nothing written), so a final snapshot
	// always satisfies admitted == completed + failed + canceled.
	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64

	ridPrefix string // per-process request-ID prefix
	ridSeq    atomic.Uint64

	fault *faultInjector // nil = disabled (handlers registered unwrapped)

	mux    *http.ServeMux
	encode encodeFunc
	verify verifyFunc
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		metrics:   new(obs.Metrics),
		cache:     NewCache(cfg.CacheBytes),
		sem:       make(chan struct{}, cfg.MaxInflight),
		pool:      sched.New(cfg.MaxInflight),
		recorder:  newRecorder(cfg.RecorderSize),
		ridPrefix: newRIDPrefix(),
		encode:    nova.EncodeContext,
		verify:    nova.VerifyContext,
	}
	if cfg.FaultInjection != nil {
		s.fault = newFaultInjector(*cfg.FaultInjection, s.metrics)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/encode", s.withFaults(s.admittedH("/v1/encode", s.handleEncode)))
	mux.HandleFunc("POST /v1/encode/batch", s.withFaults(s.admittedH("/v1/encode/batch", s.handleBatch)))
	mux.HandleFunc("POST /v1/verify", s.withFaults(s.admittedH("/v1/verify", s.handleVerify)))
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /debug/requests", s.handleRequests)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain flips the server into draining mode: healthz reports 503, new
// requests are refused with 503 + Retry-After, in-flight requests finish
// normally. It never blocks; pair it with http.Server.Shutdown, which
// waits for the in-flight connections.
func (s *Server) Drain() { s.draining.Store(true) }

// Vars merges every server counter into one flat map: HTTP counters and
// latency histograms, cache statistics, engine-run and singleflight
// totals, and the inflight/draining gauges. This is the /debug/vars
// payload (under the "nova" key).
func (s *Server) Vars() map[string]int64 {
	out := s.metrics.Vars()
	s.putOwnVars(out)
	return out
}

// putOwnVars adds the values the server keeps outside its metrics —
// cache, singleflight, engine runs, admission outcomes, inflight and
// drain state — to out, for /debug/vars and /metrics alike.
func (s *Server) putOwnVars(out map[string]int64) {
	cs := s.cache.Stats()
	out["cache.hits"] = cs.Hits
	out["cache.misses"] = cs.Misses
	out["cache.evictions"] = cs.Evictions
	out["cache.bytes"] = cs.Bytes
	out["cache.entries"] = cs.Entries
	out["engine.encodes"] = s.encodes.Load()
	out["flight.leaders"] = s.flights.Leads()
	out["flight.shared"] = s.flights.Shared()
	out["http.inflight"] = s.inflight.Load()
	out["serve.admitted"] = s.admitted.Load()
	out["serve.completed"] = s.completed.Load()
	out["serve.failed"] = s.failed.Load()
	out["serve.canceled"] = s.canceled.Load()
	out["server.draining"] = 0
	if s.draining.Load() {
		out["server.draining"] = 1
	}
}

// admittedH wraps an endpoint with drain refusal, the per-request
// deadline, the request-scoped observability (request IDs, RED metrics,
// flight recorder, access log) and the body bound. Engine capacity is
// NOT taken here: the handlers acquire a slot (acquireSlot) only when
// real engine work is needed, so cache hits and malformed requests are
// served even when every slot is busy. The reqObs record lives on this
// frame's stack and is threaded to the handler by pointer; its
// per-endpoint metric names were pre-concatenated at registration, so
// the request path builds no strings beyond the (opt-in) request ID.
func (s *Server) admittedH(endpoint string, h func(http.ResponseWriter, *http.Request, *reqObs)) http.HandlerFunc {
	ep := endpointKeysOf(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics
		m.Add("http.requests", 1)
		m.Add(ep.requests, 1)
		var ro reqObs
		ro.endpoint = ep.name
		ro.start = time.Now()
		ro.pri = priorityOf(r)
		if !s.cfg.DisableRequestObs {
			ro.id = s.requestID(r)
			w.Header().Set("X-Request-Id", ro.id)
			ro.trace = traceRequested(r)
		}
		// Retry-safety metadata: every nova endpoint is a pure function
		// of its request (responses are content-addressed), so a retry
		// can never duplicate a side effect. Stated per response for
		// clients and proxies that decide replays generically.
		w.Header().Set("X-Nova-Retry-Safe", "1")
		if s.draining.Load() {
			m.Add("http.rejected.draining", 1)
			m.Add(shedKey(ro.pri), 1)
			s.refuse(w, &ro, http.StatusServiceUnavailable, "5", "server draining")
			return
		}
		s.admitted.Add(1)
		n := s.inflight.Add(1)
		m.Max("http.inflight_max", n)
		start := time.Now()
		defer func() {
			s.inflight.Add(-1)
			ro.total = time.Since(start)
			m.ObserveDur(ep.latency, ro.total)
			s.finishObs(ep, &ro)
		}()

		d, err := requestTimeout(r, s.cfg)
		if err != nil {
			s.writeError(w, &ro, http.StatusBadRequest, fmt.Errorf("%w: %v", nova.ErrBadOptions, err))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r, &ro)
	}
}

// acquireSlot takes an engine slot under the priority shedding policy.
// The fast path (a free slot) admits everyone. Under saturation:
//
//   - low-priority requests shed immediately — they are the first load
//     dropped under pressure;
//   - expensive work (iexact, portfolio, best, iovariant) at normal
//     priority sheds without queueing — the searches with heavy-tailed
//     latency go first, cheap heuristics keep flowing;
//   - everything else (cheap work, and high priority regardless of
//     cost) waits up to cfg.QueueWait for a slot.
//
// A false return means the request was shed (or its client left): the
// saturation counters are already ticked and the caller answers with
// the overloaded error. Callers that got true release with releaseSlot.
func (s *Server) acquireSlot(ctx context.Context, pri priority, cost costClass) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	shed := func() bool {
		if ctx.Err() != nil {
			return false // client gone: accounted as canceled, not shed
		}
		m := s.metrics
		m.Add("http.rejected.saturated", 1)
		m.Add(shedKey(pri), 1)
		return false
	}
	if s.cfg.QueueWait <= 0 || pri == priLow || (cost == costExpensive && pri != priHigh) {
		return shed()
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return shed()
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSlot() { <-s.sem }

// overloadedErr is the typed refusal acquireSlot's callers return: the
// wire kind is ErrKindOverloaded, the status 429, and writeError adds
// the Retry-After header. A dead client context turns into the canceled
// error instead, so the 499 accounting stays truthful.
func overloadedErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", nova.ErrCanceled, err)
	}
	return fmt.Errorf("%w: no engine capacity, load shed", nova.ErrOverloaded)
}

// requestTimeout resolves the per-request deadline from ?timeout=.
func requestTimeout(r *http.Request, cfg Config) (time.Duration, error) {
	q := r.URL.Query().Get("timeout")
	if q == "" {
		return cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, fmt.Errorf("timeout %q: %v", q, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout %q must be positive", q)
	}
	if d > cfg.MaxTimeout {
		d = cfg.MaxTimeout
	}
	return d, nil
}

// handleEncode serves POST /v1/encode.
func (s *Server) handleEncode(w http.ResponseWriter, r *http.Request, ro *reqObs) {
	var rq nova.Request
	if err := json.NewDecoder(r.Body).Decode(&rq); err != nil {
		s.writeError(w, ro, http.StatusBadRequest, fmt.Errorf("%w: body: %v", nova.ErrBadOptions, err))
		return
	}
	body, eo, err := s.encodeCached(r.Context(), &rq, ro.pri, ro.trace)
	ro.encodeObs = eo
	if err != nil {
		s.writeError(w, ro, statusOf(r.Context(), err), err)
		return
	}
	state := "MISS"
	if eo.cache == "hit" {
		state = "HIT"
	}
	// The ?trace=1 phase table travels as a header: the body is the
	// cached artifact and must stay byte-identical across replays.
	if ro.trace && len(ro.phases) > 0 {
		if pb, err := json.Marshal(ro.phases); err == nil {
			w.Header().Set("X-Nova-Phases", string(pb))
		}
	}
	s.writeBody(w, ro, http.StatusOK, body, state)
}

// encodeCached is the content-addressed path shared by the single and
// batch endpoints: cache lookup, then a singleflight-collapsed engine
// run whose marshaled Response is cached for the next identical request.
// It returns what it observed: the request's identity, cache
// interaction, admission wait, engine time and — for trace leaders — the
// phase table. A request-scoped trace never reaches the cached body: the
// tracer is request-local and the snapshot is stripped before marshal,
// so traced and untraced requests share byte-identical cache entries.
//
// The engine slot is taken here, after the cache lookup: cache hits
// cost no capacity and are served even under saturation; a cache miss
// pays admission under the priority shedding policy and can come back
// with the overloaded error.
func (s *Server) encodeCached(ctx context.Context, rq *nova.Request, pri priority, trace bool) (body []byte, eo encodeObs, err error) {
	key, err := rq.CacheKey()
	if err != nil {
		return nil, eo, err
	}
	eo.machine = key[:12]
	eo.algo = string(rq.Algorithm)
	if b, ok := s.cache.Get(key); ok {
		eo.cache = "hit"
		return b, eo, nil
	}
	t0 := time.Now()
	if !s.acquireSlot(ctx, pri, costOf(rq.Algorithm)) {
		return nil, eo, overloadedErr(ctx)
	}
	defer s.releaseSlot()
	eo.queue = time.Since(t0)
	led := false
	b, joined, err := s.flights.Do(ctx, key, func() ([]byte, error) {
		led = true
		f, err := rq.Machine()
		if err != nil {
			return nil, err
		}
		opt := rq.Options()
		opt.Parallelism = s.cfg.Parallelism
		if rq.IncludeTelemetry || trace {
			opt.Tracer = obs.New()
		}
		s.encodes.Add(1)
		t0 := time.Now()
		res, err := s.encode(ctx, f, opt)
		eo.encode = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if opt.Tracer != nil {
			eo.phases = nova.WirePhasesOf(res.Telemetry)
			if !rq.IncludeTelemetry {
				res.Telemetry = nil // request-scoped trace: keep it out of the cached body
			}
		}
		b, err := json.Marshal(nova.ResponseOf(f, res))
		if err != nil {
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	})
	switch {
	case led:
		eo.cache = "miss"
	case joined:
		eo.cache = "follower"
	}
	return b, eo, err
}

// BatchRequest / BatchResponse are the wire envelope of
// POST /v1/encode/batch. Responses[i] answers Requests[i]; a failed
// machine carries its error inline (the nova.Response error fields) and
// never aborts its siblings — the same partial-results contract as
// nova.EncodeAll.
type BatchRequest struct {
	Requests []nova.Request `json:"requests"`
}

type BatchResponse struct {
	Responses []json.RawMessage `json:"responses"`
}

// handleBatch serves POST /v1/encode/batch: the items fan out over the
// server's bounded pool and each one goes through the cached single-
// encode path, so a batch warms the cache for later point requests and
// vice versa. The batch is observed as one request: after the join, its
// record holds the sum of the items' admission waits and engine times.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, ro *reqObs) {
	var bq BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&bq); err != nil {
		s.writeError(w, ro, http.StatusBadRequest, fmt.Errorf("%w: body: %v", nova.ErrBadOptions, err))
		return
	}
	if len(bq.Requests) == 0 {
		s.writeError(w, ro, http.StatusBadRequest, fmt.Errorf("%w: empty batch", nova.ErrBadOptions))
		return
	}
	if len(bq.Requests) > s.cfg.MaxBatch {
		s.writeError(w, ro, http.StatusBadRequest,
			fmt.Errorf("%w: batch of %d exceeds the %d-machine bound", nova.ErrBadOptions, len(bq.Requests), s.cfg.MaxBatch))
		return
	}
	out := BatchResponse{Responses: make([]json.RawMessage, len(bq.Requests))}
	items := make([]encodeObs, len(bq.Requests))
	g := s.pool.Group(r.Context())
	for i := range bq.Requests {
		g.Go(func(ctx context.Context) error {
			rq := &bq.Requests[i]
			body, eo, err := s.encodeCached(ctx, rq, ro.pri, false)
			items[i] = eo
			if err != nil {
				if errors.Is(err, nova.ErrCanceled) && ctx.Err() != nil {
					return err // whole batch canceled: stop the siblings
				}
				body, merr := json.Marshal(nova.ErrorResponse(rq.Name, rq.Algorithm, err))
				if merr != nil {
					return merr
				}
				out.Responses[i] = body
				return nil
			}
			out.Responses[i] = body
			return nil
		})
	}
	err := g.Wait()
	for _, eo := range items {
		ro.queue += eo.queue
		ro.encode += eo.encode
	}
	if err != nil {
		s.writeError(w, ro, statusOf(r.Context(), err), err)
		return
	}
	s.writeJSON(w, ro, http.StatusOK, out)
}

// handleVerify serves POST /v1/verify. A verification mismatch is a
// successful request whose answer is "no": 200 with ok=false.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, ro *reqObs) {
	var vq nova.VerifyRequest
	if err := json.NewDecoder(r.Body).Decode(&vq); err != nil {
		s.writeError(w, ro, http.StatusBadRequest, fmt.Errorf("%w: body: %v", nova.ErrBadOptions, err))
		return
	}
	f, err := vq.Machine()
	if err != nil {
		s.writeError(w, ro, http.StatusBadRequest, err)
		return
	}
	asg, err := vq.Assignment()
	if err != nil {
		s.writeError(w, ro, http.StatusBadRequest, err)
		return
	}
	t0 := time.Now()
	if !s.acquireSlot(r.Context(), ro.pri, costCheap) {
		err := overloadedErr(r.Context())
		s.writeError(w, ro, statusOf(r.Context(), err), err)
		return
	}
	ro.queue = time.Since(t0)
	err = s.verify(r.Context(), f, asg)
	s.releaseSlot()
	if err != nil {
		if errors.Is(err, nova.ErrCanceled) {
			s.writeError(w, ro, statusOf(r.Context(), err), err)
			return
		}
		s.writeJSON(w, ro, http.StatusOK, nova.VerifyResponse{APIVersion: nova.WireVersion, OK: false, Error: err.Error(), ErrorKind: nova.ErrorKindOf(err)})
		return
	}
	s.writeJSON(w, ro, http.StatusOK, nova.VerifyResponse{APIVersion: nova.WireVersion, OK: true})
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleVars serves GET /debug/vars in expvar's JSON shape, with every
// server counter under the "nova" key.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"nova": s.Vars()}) //nolint:errcheck // best-effort diagnostics
}

// handleMetrics serves GET /metrics: the same counters and histograms as
// /debug/vars in Prometheus text exposition (see prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counters := s.metrics.Counters()
	s.putOwnVars(counters)
	writeProm(w, counters, s.metrics.Histograms())
}

// handleRequests serves GET /debug/requests: the flight recorder's
// slowest requests and most recent failures, optionally filtered to one
// request ID (?id=...).
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.recorder.snapshot(r.URL.Query().Get("id"))) //nolint:errcheck // best-effort diagnostics
}

// statusOf maps an engine error onto its HTTP status. Deadline expiry of
// the request's own context is a server-side timeout (504); every other
// cancellation means the client is gone and the status is moot.
func statusOf(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, nova.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, nova.ErrBadOptions):
		return http.StatusBadRequest
	case errors.Is(err, nova.ErrGaveUp), errors.Is(err, nova.ErrUnencodable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, nova.ErrCanceled), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest is nginx's conventional code for "client
// hung up first"; the client never sees it, the access metrics do.
const statusClientClosedRequest = 499

func (s *Server) refuse(w http.ResponseWriter, ro *reqObs, status int, retryAfter, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, ro, status, fmt.Errorf("%w: %s", nova.ErrOverloaded, msg))
}

func (s *Server) writeError(w http.ResponseWriter, ro *reqObs, status int, err error) {
	s.metrics.Add("http.status."+strconv.Itoa(status), 1)
	kind := nova.ErrorKindOf(err)
	if kind == "" {
		kind = nova.ErrKindInternal
	}
	if kind == nova.ErrKindOverloaded && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	ro.status, ro.errKind = status, kind
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("request failed", "status", status, "err", err, "id", ro.id)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	b, merr := json.Marshal(&nova.Response{Error: err.Error(), ErrorKind: kind})
	if merr != nil {
		return
	}
	w.Write(append(b, '\n')) //nolint:errcheck // client may be gone
}

func (s *Server) writeJSON(w http.ResponseWriter, ro *reqObs, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, ro, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, ro, status, b, "")
}

func (s *Server) writeBody(w http.ResponseWriter, ro *reqObs, status int, b []byte, cacheState string) {
	s.metrics.Add("http.status."+strconv.Itoa(status), 1)
	ro.status, ro.errKind = status, ""
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if cacheState != "" {
		w.Header().Set("X-Cache", cacheState)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // client may be gone
}
