// Command novad serves NOVA encodings over HTTP/JSON with
// content-addressed result caching.
//
// Usage:
//
//	novad [-addr :8089] [-cache-mb 64] [-max-inflight N] [-queue-wait 100ms]
//	      [-timeout 30s] [-max-timeout 2m] [-parallel 1]
//	      [-grace 30s] [-recorder 32] [-access-log] [-no-request-obs] [-v]
//	      [-fault-inject "seed=5,error=0.1,drop=0.05"]
//
// -fault-inject (or the NOVAD_FAULT_INJECT environment variable) arms
// the deterministic fault-injection middleware for chaos testing and
// soak runs; see docs/SERVING.md. Left unset — the default — the
// middleware is structurally absent from the handler chain.
//
// Endpoints, cache semantics and capacity knobs are documented in
// docs/SERVING.md; the observability surface (GET /metrics Prometheus
// exposition, GET /debug/requests flight recorder, request IDs, the
// ?trace=1 opt-in) in docs/OBSERVABILITY.md. On SIGTERM (or SIGINT) the
// daemon drains gracefully: it stops accepting work (healthz reports 503
// so load balancers fall away), finishes the in-flight requests within
// the -grace budget, then prints a final telemetry snapshot to stderr —
// in which admitted == completed + failed + canceled accounts for every
// admitted request — and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"nova/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8089", "listen address")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently served requests (0 = GOMAXPROCS)")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "how long a request may wait for an admission slot before 429")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (override per request with ?timeout=)")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on the client-requested ?timeout=")
	parallel := flag.Int("parallel", 1, "worker goroutines per encode (1 = serial per request; admission owns the machine)")
	grace := flag.Duration("grace", 30*time.Second, "drain budget for in-flight requests on SIGTERM")
	recorder := flag.Int("recorder", 32, "flight-recorder depth: keep the N slowest and N most recent failed requests at /debug/requests (negative = off)")
	accessLog := flag.Bool("access-log", false, "log one structured line per request (request ID, status, cache state, latency split)")
	noReqObs := flag.Bool("no-request-obs", false, "disable per-request observability (request IDs, flight recorder, access log, ?trace=1)")
	verbose := flag.Bool("v", false, "log every failed request and print the final counter report")
	faultSpec := flag.String("fault-inject", "",
		"arm deterministic fault injection for chaos testing, e.g. \"seed=5,error=0.1,drop=0.05,latency=50ms,latency-rate=0.2\" (default: $NOVAD_FAULT_INJECT; never arm in production)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *faultSpec == "" {
		*faultSpec = os.Getenv("NOVAD_FAULT_INJECT")
	}
	fault, err := parseFaultSpec(*faultSpec)
	if err != nil {
		logger.Error("bad -fault-inject spec", "err", err)
		return 2
	}
	cfg := serve.Config{
		CacheBytes:        *cacheMB << 20,
		MaxInflight:       *maxInflight,
		QueueWait:         *queueWait,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		Parallelism:       *parallel,
		RecorderSize:      *recorder,
		AccessLog:         *accessLog,
		DisableRequestObs: *noReqObs,
		FaultInjection:    fault,
	}
	if *verbose || *accessLog {
		cfg.Logger = logger
	}
	if fault != nil {
		logger.Warn("FAULT INJECTION ARMED — this instance deliberately fails requests",
			"seed", fault.Seed, "error_rate", fault.ErrorRate,
			"drop_rate", fault.DropRate, "latency_rate", fault.LatencyRate,
			"latency", fault.Latency)
	}
	s := serve.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGTERM/SIGINT: stop accepting, finish in-flight, flush telemetry.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("draining", "grace", *grace)
		s.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		done <- httpSrv.Shutdown(shutdownCtx)
	}()

	logger.Info("novad listening", "addr", *addr,
		"max_inflight", cfg.MaxInflight, "cache_mb", *cacheMB)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "err", err)
		return 1
	}
	if err := <-done; err != nil {
		logger.Error("drain incomplete", "err", err)
	}
	flushSnapshot(s, *verbose)
	logger.Info("drained; exiting")
	return 0
}

// flushSnapshot prints the final counter set to stderr so an operator
// (or the CI smoke job) sees what the process did before it exited.
func flushSnapshot(s *serve.Server, verbose bool) {
	vars := s.Vars()
	keys := make([]string, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(os.Stderr, "final telemetry snapshot:")
	for _, k := range keys {
		if verbose || vars[k] != 0 {
			fmt.Fprintf(os.Stderr, "  %-32s %d\n", k, vars[k])
		}
	}
}
