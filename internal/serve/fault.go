package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"nova/internal/obs"
	"nova/internal/sched"
)

// FaultConfig arms the deterministic fault-injection middleware on the
// POST endpoints. Faults are drawn per request from a seeded splitmix64
// stream indexed by arrival order, so a given (seed, request sequence)
// replays the exact same fault schedule — the property the chaos suite
// and the client's retry tests rely on. Rates are probabilities in
// [0, 1]; draws are evaluated in order latency, error, drop, and the
// injected faults tick the fault.injected.<kind> counters.
//
// This is a test and soak-tool surface: novad gates it behind the
// -fault-inject flag / NOVAD_FAULT_INJECT env and refuses it silently
// in normal operation.
type FaultConfig struct {
	// Seed selects the fault schedule (0 is a valid, fixed schedule).
	Seed uint64
	// LatencyRate injects Latency of extra delay before the handler.
	LatencyRate float64
	Latency     time.Duration
	// ErrorRate answers 503 + Retry-After without reaching the handler,
	// simulating a failing upstream.
	ErrorRate float64
	// DropRate aborts the connection mid-request without a response,
	// simulating a crashed peer or a cut network path.
	DropRate float64
}

type faultInjector struct {
	cfg FaultConfig
	m   *obs.Metrics
	seq atomic.Uint64
}

func newFaultInjector(cfg FaultConfig, m *obs.Metrics) *faultInjector {
	return &faultInjector{cfg: cfg, m: m}
}

// withFaults arms h with the fault middleware. With fault injection
// disabled (the default) it returns h itself — the registered handler
// chain is structurally identical to a build without this file, which
// is what TestFaultInjectionDisabledIsNoOp pins.
func (s *Server) withFaults(h http.HandlerFunc) http.HandlerFunc {
	if s.fault == nil {
		return h
	}
	return s.fault.wrap(h)
}

func (fi *faultInjector) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Three independent uniform draws from one per-request stream.
		st, _ := sched.SplitMix64(fi.cfg.Seed ^ (fi.seq.Add(1) * sched.Gamma))
		var u [3]float64
		for i := range u {
			var v uint64
			v, st = sched.SplitMix64(st)
			u[i] = float64(v>>11) / (1 << 53)
		}
		if u[0] < fi.cfg.LatencyRate && fi.cfg.Latency > 0 {
			fi.m.Add("fault.injected.latency", 1)
			select {
			case <-time.After(fi.cfg.Latency):
			case <-r.Context().Done():
			}
		}
		if u[1] < fi.cfg.ErrorRate {
			fi.m.Add("fault.injected.error", 1)
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"injected fault","error_kind":"internal"}` + "\n")) //nolint:errcheck
			return
		}
		if u[2] < fi.cfg.DropRate {
			fi.m.Add("fault.injected.drop", 1)
			// The canonical way to abort the connection without writing a
			// response: net/http recovers this sentinel and closes the
			// stream, so the client sees EOF, not a status.
			panic(http.ErrAbortHandler)
		}
		h(w, r)
	}
}
