// Package client is the Go client for the novad wire API.
//
// On top of plain HTTP it layers the three resilience mechanisms a
// caller of a shedding, occasionally-faulty encode service needs, all
// off by default except retries:
//
//   - Per-request deadline budgets. Config.Budget bounds one logical
//     call end to end — every retry, every hedge, every backoff sleep
//     runs under the same deadline, so a call can never take longer
//     than its budget no matter how many attempts it spends.
//
//   - Capped exponential backoff with deterministic jitter. Attempts
//     that fail with a retryable error (HTTP 429, 503, or a transport/
//     connection error) are retried up to Config.MaxRetries times,
//     sleeping base<<attempt capped at Config.BackoffCap and jittered
//     into [d/2, d) from a seeded stream, so a fleet of clients with
//     distinct seeds does not thunder in lockstep and a test with a
//     fixed seed replays the exact delay sequence. A server-supplied
//     Retry-After overrides a shorter computed delay. Retrying is
//     always safe: every nova endpoint is pure (the server says so
//     per-response via X-Nova-Retry-Safe).
//
//   - Hedged requests. With Config.HedgeDelay > 0, an attempt that has
//     not answered within the delay is raced against a second identical
//     request; the first success wins and the loser's context is
//     canceled. Purely a tail-latency tool — the cost is at most one
//     duplicate request against a content-addressed cache.
//
//   - A consecutive-failure circuit breaker. Config.BreakerThreshold
//     consecutive server faults (429/5xx/transport errors) open the
//     breaker; while open, calls fail fast with ErrBreakerOpen instead
//     of piling onto a struggling server. After Config.BreakerCooldown
//     a single half-open probe is let through: success closes the
//     breaker, failure re-opens it for another cooldown.
//
// Observability mirrors the server's: Vars() exposes monotonic
// counters (client.requests, client.attempts, client.retries,
// client.hedges, client.hedges.won, client.breaker.opened,
// client.breaker.rejected) plus the client.breaker.state gauge
// (0 closed, 1 open, 2 half-open).
//
// Error taxonomy: transport failures come back wrapped but unchanged;
// HTTP-level failures come back as *APIError carrying the status, the
// wire error_kind (one of nova.ErrorKinds) and any Retry-After; a
// breaker rejection is ErrBreakerOpen. All of it matches errors.Is /
// errors.As.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"nova"
	"nova/internal/obs"
)

// Config configures a Client. The zero value of every field except
// BaseURL selects a sensible default; BaseURL is required.
type Config struct {
	// BaseURL roots the server's API, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient issues the requests (default: a plain &http.Client{};
	// per-call deadlines come from Budget and the caller's context, not
	// from http.Client.Timeout, which would cut hedges and retries off
	// mid-flight).
	HTTPClient *http.Client
	// Budget bounds one logical call — all retries, hedges and backoff
	// sleeps included — as a context deadline. 0 means no client-imposed
	// budget (the caller's context still governs).
	Budget time.Duration
	// MaxRetries is the number of re-attempts after the first try
	// (0 = default 3, negative = no retries).
	MaxRetries int
	// BackoffBase and BackoffCap shape the exponential backoff:
	// attempt n sleeps jitter(min(BackoffCap, BackoffBase<<n)).
	// Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed selects the jitter stream. Clients with distinct seeds
	// de-synchronize; a fixed seed replays an exact delay sequence.
	Seed uint64
	// HedgeDelay launches a duplicate request if an attempt has not
	// answered within the delay (0 = hedging off).
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-server-fault count that opens
	// the circuit breaker (0 = default 5, negative = breaker off).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before it
	// admits a half-open probe (default 2s).
	BreakerCooldown time.Duration
	// Priority is sent as X-Nova-Priority on every request ("low" and
	// "high" steer the server's load-shedding policy; anything else is
	// normal).
	Priority string
}

// Client is a resilient novad API client. It is safe for concurrent
// use; the breaker and the metrics are shared across goroutines by
// design (that is what makes the breaker useful).
type Client struct {
	cfg  Config
	base string
	do   func(*http.Request) (*http.Response, error)
	clk  clock
	m    *obs.Metrics
	bk   *breaker
	bo   *backoff
}

// New validates cfg and returns a ready Client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("nova client: Config.BaseURL is required")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("nova client: invalid BaseURL %q", cfg.BaseURL)
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 3
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = cfg.BackoffBase
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 5
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	m := new(obs.Metrics)
	return &Client{
		cfg:  cfg,
		base: strings.TrimRight(u.String(), "/"),
		do:   cfg.HTTPClient.Do,
		clk:  sysClock{},
		m:    m,
		bk:   newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, m),
		bo:   newBackoff(cfg.BackoffBase, cfg.BackoffCap, cfg.Seed),
	}, nil
}

// ErrBreakerOpen reports a call rejected locally because the circuit
// breaker is open: recent attempts failed consecutively and the
// cooldown has not elapsed, so the client fails fast instead of adding
// load to a struggling server.
var ErrBreakerOpen = errors.New("nova client: circuit breaker open")

// APIError is a non-2xx answer from the server, decoded from the wire
// error envelope.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Kind is the wire error_kind — one of nova.ErrorKinds, or
	// nova.ErrKindInternal when the body carried none.
	Kind string
	// Message is the server's error text.
	Message string
	// RetryAfter is the parsed Retry-After header (0 if absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("nova client: server answered %d (%s): %s", e.Status, e.Kind, e.Message)
}

// Retryable reports whether the client's retry loop considers this
// failure transient: HTTP 429 or 503 (admission refusals, load sheds,
// injected faults, drains — the statuses the server reserves for "try
// again"), or an overloaded error kind on any status. Deterministic
// failures (bad_request, gave_up, unencodable) are not retryable; the
// identical request would fail identically.
func (e *APIError) Retryable() bool {
	return e.Status == http.StatusTooManyRequests ||
		e.Status == http.StatusServiceUnavailable ||
		e.Kind == nova.ErrKindOverloaded
}

// Encode runs one encode request and returns the decoded response.
// The request's api_version is stamped with nova.WireVersion when
// absent. Failures are *APIError (server answered non-2xx),
// ErrBreakerOpen, or a wrapped transport error.
func (c *Client) Encode(ctx context.Context, rq nova.Request) (*nova.Response, error) {
	if rq.APIVersion == 0 {
		rq.APIVersion = nova.WireVersion
	}
	payload, err := json.Marshal(rq)
	if err != nil {
		return nil, fmt.Errorf("nova client: encoding request: %w", err)
	}
	body, err := c.call(ctx, "/v1/encode", payload)
	if err != nil {
		return nil, err
	}
	rp := new(nova.Response)
	if err := json.Unmarshal(body, rp); err != nil {
		return nil, fmt.Errorf("nova client: decoding response: %w", err)
	}
	return rp, nil
}

// batchRequest / batchResponse mirror the server's batch envelope
// (internal/serve.BatchRequest) — the JSON shapes are the wire
// contract; the Go types are deliberately not shared so the client
// does not link the serving layer.
type batchRequest struct {
	Requests []nova.Request `json:"requests"`
}

type batchResponse struct {
	Responses []json.RawMessage `json:"responses"`
}

// EncodeBatch runs a batch of encode requests in one round trip and
// returns one response per request, in order. Per-item failures travel
// inline (Response.Error / Response.ErrorKind), exactly as on the
// wire; only whole-batch failures (transport, non-2xx status, breaker)
// surface as an error. The retry loop applies to the batch as a whole.
func (c *Client) EncodeBatch(ctx context.Context, rqs []nova.Request) ([]nova.Response, error) {
	stamped := make([]nova.Request, len(rqs))
	copy(stamped, rqs)
	for i := range stamped {
		if stamped[i].APIVersion == 0 {
			stamped[i].APIVersion = nova.WireVersion
		}
	}
	payload, err := json.Marshal(batchRequest{Requests: stamped})
	if err != nil {
		return nil, fmt.Errorf("nova client: encoding batch request: %w", err)
	}
	body, err := c.call(ctx, "/v1/encode/batch", payload)
	if err != nil {
		return nil, err
	}
	var brp batchResponse
	if err := json.Unmarshal(body, &brp); err != nil {
		return nil, fmt.Errorf("nova client: decoding batch response: %w", err)
	}
	out := make([]nova.Response, len(brp.Responses))
	for i, raw := range brp.Responses {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("nova client: decoding batch response %d: %w", i, err)
		}
	}
	return out, nil
}

// Verify checks a code assignment against its machine on the server.
// A nil error with OK=false means the assignment failed verification
// (the response carries the mismatch); an error means the check could
// not run.
func (c *Client) Verify(ctx context.Context, vq nova.VerifyRequest) (*nova.VerifyResponse, error) {
	if vq.APIVersion == 0 {
		vq.APIVersion = nova.WireVersion
	}
	payload, err := json.Marshal(vq)
	if err != nil {
		return nil, fmt.Errorf("nova client: encoding verify request: %w", err)
	}
	body, err := c.call(ctx, "/v1/verify", payload)
	if err != nil {
		return nil, err
	}
	vp := new(nova.VerifyResponse)
	if err := json.Unmarshal(body, vp); err != nil {
		return nil, fmt.Errorf("nova client: decoding verify response: %w", err)
	}
	return vp, nil
}

// Healthz probes GET /v1/healthz once — no retries, no hedging, no
// breaker: a health check must report the server as it is right now.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return fmt.Errorf("nova client: healthz: %w", err)
	}
	resp, err := c.do(req)
	if err != nil {
		return fmt.Errorf("nova client: healthz: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Kind: nova.ErrKindInternal,
			Message: "healthz answered " + resp.Status}
	}
	return nil
}

// Vars snapshots the client's counters plus the breaker state gauge
// (client.breaker.state: 0 closed, 1 open, 2 half-open).
func (c *Client) Vars() map[string]int64 {
	out := c.m.Vars()
	out["client.breaker.state"] = int64(c.bk.current())
	return out
}

// BreakerState names the breaker's current state: "closed", "open" or
// "half-open".
func (c *Client) BreakerState() string { return c.bk.current().String() }

// call is the retry engine: breaker gate, one (possibly hedged)
// attempt, failure classification, jittered backoff, under the
// call-wide budget.
func (c *Client) call(ctx context.Context, path string, payload []byte) ([]byte, error) {
	if c.cfg.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.Budget)
		defer cancel()
	}
	c.m.Add("client.requests", 1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !c.bk.allow(c.clk.Now()) {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", ErrBreakerOpen, lastErr)
			}
			return nil, ErrBreakerOpen
		}
		c.m.Add("client.attempts", 1)
		body, err := c.attempt(ctx, path, payload)
		if err == nil {
			c.bk.onSuccess()
			return body, nil
		}
		lastErr = err
		switch {
		case isCtxErr(err):
			// The caller's budget fired, not the server — the breaker
			// learns nothing from it.
		case serverFault(err):
			c.bk.onFailure(c.clk.Now())
		default:
			// A well-formed client-error answer (400, 422...): the server
			// is up and responding, which resets the consecutive count.
			c.bk.onSuccess()
		}
		if !retryable(err) || attempt >= c.cfg.MaxRetries {
			return nil, err
		}
		delay := c.bo.delay(attempt)
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			return nil, fmt.Errorf("nova client: budget exhausted after %d attempts: %w", attempt+1, err)
		}
		c.m.Add("client.retries", 1)
		select {
		case <-c.clk.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("nova client: canceled while backing off: %w", context.Cause(ctx))
		}
	}
}

// attempt runs one logical attempt: a single request, or — with
// hedging on — a primary raced against a duplicate launched after
// HedgeDelay. First success wins and cancels the loser; the counters
// record launches (client.hedges) and hedge wins (client.hedges.won).
func (c *Client) attempt(ctx context.Context, path string, payload []byte) ([]byte, error) {
	if c.cfg.HedgeDelay <= 0 {
		return c.send(ctx, path, payload)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		body   []byte
		err    error
		hedged bool
	}
	ch := make(chan result, 2)
	launch := func(hedged bool) {
		go func() {
			b, err := c.send(actx, path, payload)
			ch <- result{b, err, hedged}
		}()
	}
	launch(false)
	inflight := 1
	hedgeTimer := c.clk.After(c.cfg.HedgeDelay)
	var firstErr error
	for {
		select {
		case r := <-ch:
			if r.err == nil {
				if r.hedged {
					c.m.Add("client.hedges.won", 1)
				}
				return r.body, nil
			}
			inflight--
			if inflight > 0 {
				// The other copy may still win; remember this failure.
				firstErr = r.err
				continue
			}
			if firstErr != nil {
				return nil, preferErr(firstErr, r.err)
			}
			// Primary failed before the hedge launched: hedging buys
			// nothing against an immediate failure — fall back to the
			// retry loop.
			return nil, r.err
		case <-hedgeTimer:
			hedgeTimer = nil // a nil channel never fires again
			c.m.Add("client.hedges", 1)
			launch(true)
			inflight++
		}
	}
}

// send issues one HTTP request and maps the answer: 2xx → body bytes,
// non-2xx → *APIError (kind decoded from the wire envelope, Retry-After
// parsed), transport failure → wrapped error.
func (c *Client) send(ctx context.Context, path string, payload []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("nova client: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.cfg.Priority != "" {
		req.Header.Set("X-Nova-Priority", c.cfg.Priority)
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, fmt.Errorf("nova client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("nova client: %s: reading response: %w", path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return body, nil
	}
	ae := &APIError{Status: resp.StatusCode, Kind: nova.ErrKindInternal}
	var rp nova.Response
	if json.Unmarshal(body, &rp) == nil && rp.Error != "" {
		ae.Message = rp.Error
		if rp.ErrorKind != "" {
			ae.Kind = rp.ErrorKind
		}
	} else {
		ae.Message = strings.TrimSpace(string(body))
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			ae.RetryAfter = time.Duration(n) * time.Second
		}
	}
	return nil, ae
}

// retryable classifies an attempt failure for the retry loop: server
// answers defer to APIError.Retryable; context cancellations are final
// (the budget is gone); everything else is a transport-level failure
// (connection refused/reset, dropped mid-response) and worth retrying.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Retryable()
	}
	return !isCtxErr(err)
}

// serverFault reports whether the failure should count against the
// circuit breaker: the server (or the path to it) misbehaved, as
// opposed to the request being bad or the caller's budget firing.
func serverFault(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return !isCtxErr(err)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// preferErr picks the more informative of two hedge failures: a real
// answer beats a cancellation echo.
func preferErr(a, b error) error {
	if isCtxErr(a) && !isCtxErr(b) {
		return b
	}
	return a
}
