package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nova"
)

func get(s *Server, target string, hdr map[string]string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// TestRequestIDEchoAndGenerate pins the request-ID contract: a sane
// caller-supplied X-Request-ID is echoed verbatim, a hostile one is
// replaced, and an absent one gets a fresh process-unique ID.
func TestRequestIDEchoAndGenerate(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}
	body, _ := json.Marshal(rq)

	r := httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(body))
	r.Header.Set("X-Request-Id", "trace-abc.123")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-Id"); got != "trace-abc.123" {
		t.Fatalf("client ID not echoed: %q", got)
	}

	r = httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(body))
	r.Header.Set("X-Request-Id", "bad id\twith control chars")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-Id"); !strings.HasPrefix(got, s.ridPrefix+"-") {
		t.Fatalf("hostile ID not replaced by a generated one: %q (prefix %q)", got, s.ridPrefix)
	}

	w = post(s, "/v1/encode", bytes.NewReader(body))
	first := w.Header().Get("X-Request-Id")
	w = post(s, "/v1/encode", bytes.NewReader(body))
	second := w.Header().Get("X-Request-Id")
	if first == "" || first == second {
		t.Fatalf("generated IDs not unique: %q, %q", first, second)
	}
}

func TestValidRequestID(t *testing.T) {
	cases := []struct {
		id string
		ok bool
	}{
		{"abc-123", true},
		{"0f3a/span:7", true},
		{strings.Repeat("x", 64), true},
		{strings.Repeat("x", 65), false},
		{"has space", false},
		{"quote\"inject", false},
		{"ctrl\x01", false},
		{"utf8-héllo", false},
	}
	for _, c := range cases {
		if got := validRequestID(c.id); got != c.ok {
			t.Fatalf("validRequestID(%q) = %t, want %t", c.id, got, c.ok)
		}
	}
}

// TestTraceOptIn pins the per-request trace contract: ?trace=1 on a
// cache miss returns the phase table in the X-Nova-Phases header while
// the body stays byte-identical to an untraced request — traced and
// untraced requests share one cache entry, and the trace never enters
// the cached artifact.
func TestTraceOptIn(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}
	body, _ := json.Marshal(rq)

	// Traced MISS: phases in the header, none in the body.
	tw := post(s, "/v1/encode?trace=1", bytes.NewReader(body))
	if tw.Code != http.StatusOK {
		t.Fatalf("traced POST: %d %s", tw.Code, tw.Body)
	}
	if tw.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("X-Cache = %q", tw.Header().Get("X-Cache"))
	}
	ph := tw.Header().Get("X-Nova-Phases")
	if ph == "" {
		t.Fatal("traced miss returned no X-Nova-Phases header")
	}
	var phases []nova.WirePhase
	if err := json.Unmarshal([]byte(ph), &phases); err != nil || len(phases) == 0 {
		t.Fatalf("phase header %q: %v", ph, err)
	}
	if bytes.Contains(tw.Body.Bytes(), []byte(`"telemetry"`)) {
		t.Fatal("request-scoped trace leaked into the response body")
	}

	// Untraced replay: byte-identical HIT.
	uw := post(s, "/v1/encode", bytes.NewReader(body))
	if uw.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("untraced X-Cache = %q", uw.Header().Get("X-Cache"))
	}
	if !bytes.Equal(tw.Body.Bytes(), uw.Body.Bytes()) {
		t.Fatal("traced and untraced bodies differ — the trace entered the cached artifact")
	}

	// Traced HIT: served from cache, no engine run, hence no phase table.
	hw := post(s, "/v1/encode?trace=1", bytes.NewReader(body))
	if hw.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("traced replay X-Cache = %q", hw.Header().Get("X-Cache"))
	}
	if hw.Header().Get("X-Nova-Phases") != "" {
		t.Fatal("cache hit fabricated a phase table")
	}
	if s.encodes.Load() != 1 {
		t.Fatalf("engine ran %d times", s.encodes.Load())
	}

	// The header spelling of the opt-in works too.
	rq2 := nova.Request{KISS2: quickFSM, Name: "quick2", Algorithm: nova.IGreedy}
	b2, _ := json.Marshal(rq2)
	r := httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(b2))
	r.Header.Set("X-Nova-Trace", "1")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Header().Get("X-Nova-Phases") == "" {
		t.Fatal("X-Nova-Trace header did not enable the trace")
	}
}

// TestIncludeTelemetryBodyHasPhases: the explicit include_telemetry
// request keeps its in-body snapshot, now with the phase table.
func TestIncludeTelemetryBodyHasPhases(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy, IncludeTelemetry: true}
	w := post(s, "/v1/encode", encodeBody(t, rq))
	if w.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", w.Code, w.Body)
	}
	var rp nova.Response
	if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.Telemetry == nil || len(rp.Telemetry.Phases) == 0 {
		t.Fatalf("telemetry body lacks phases: %+v", rp.Telemetry)
	}
	for _, p := range rp.Telemetry.Phases {
		if p.Name == "" || p.Count <= 0 {
			t.Fatalf("malformed phase %+v", p)
		}
	}
}

// TestDebugRequestsEndpoint drives real traffic and reads the flight
// recorder back: a slow (traced) success in slowest, a failure in
// recent_failures, and the ?id= filter narrowing to one request.
func TestDebugRequestsEndpoint(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}
	body, _ := json.Marshal(rq)

	r := httptest.NewRequest(http.MethodPost, "/v1/encode?trace=1", bytes.NewReader(body))
	r.Header.Set("X-Request-Id", "req-slow")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("encode: %d %s", w.Code, w.Body)
	}
	fw := post(s, "/v1/encode", bytes.NewReader([]byte("{")))
	if fw.Code != http.StatusBadRequest {
		t.Fatalf("bad request: %d", fw.Code)
	}
	failID := fw.Header().Get("X-Request-Id")

	dw := get(s, "/debug/requests", nil)
	if dw.Code != http.StatusOK {
		t.Fatalf("/debug/requests: %d", dw.Code)
	}
	var snap RecorderSnapshot
	if err := json.Unmarshal(dw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slowest) == 0 {
		t.Fatal("no slowest entries after traffic")
	}
	var slow *RequestRecord
	for i := range snap.Slowest {
		if snap.Slowest[i].ID == "req-slow" {
			slow = &snap.Slowest[i]
		}
	}
	if slow == nil {
		t.Fatalf("traced request missing from slowest: %+v", snap.Slowest)
	}
	if slow.Endpoint != "/v1/encode" || slow.Status != http.StatusOK || slow.Cache != "miss" {
		t.Fatalf("slow record %+v", slow)
	}
	if slow.Machine == "" || slow.Algorithm != string(nova.IGreedy) {
		t.Fatalf("slow record identity %+v", slow)
	}
	if len(slow.Phases) == 0 {
		t.Fatal("traced record lost its phase table")
	}
	if slow.TotalMicros <= 0 {
		t.Fatalf("total_us = %d", slow.TotalMicros)
	}
	if len(snap.RecentFailures) == 0 {
		t.Fatal("failure not recorded")
	}
	f := snap.RecentFailures[0]
	if f.ID != failID || f.Status != http.StatusBadRequest || f.ErrorKind != nova.ErrKindBadRequest {
		t.Fatalf("failure record %+v (want id %q)", f, failID)
	}

	// The ?id= filter pairs with ?trace=1: fetch one request's record.
	iw := get(s, "/debug/requests?id=req-slow", nil)
	var one RecorderSnapshot
	if err := json.Unmarshal(iw.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Slowest) != 1 || one.Slowest[0].ID != "req-slow" || len(one.RecentFailures) != 0 {
		t.Fatalf("id filter: %+v", one)
	}
}

// TestDrainAccountingIdentity is the graceful-drain observability
// contract: under concurrent mixed-outcome traffic with a drain flipped
// mid-flight, the final snapshot satisfies
// admitted == completed + failed + canceled exactly.
func TestDrainAccountingIdentity(t *testing.T) {
	s := New(Config{MaxInflight: 8})
	block := make(chan struct{})
	realEncode := s.encode
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		select {
		case <-block:
		case <-ctx.Done():
			return nil, fmt.Errorf("nova: canceled: %w", nova.ErrCanceled)
		}
		return realEncode(ctx, f, opt)
	}

	var wg sync.WaitGroup
	// Successes (each a distinct machine name so they never collapse),
	// held in flight until the drain has flipped.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rq := nova.Request{KISS2: quickFSM, Name: fmt.Sprintf("m%d", i), Algorithm: nova.IGreedy}
			post(s, "/v1/encode", encodeBody(t, rq))
		}()
	}
	// A canceled client: hangs up while its encode blocks.
	wg.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		defer wg.Done()
		r := httptest.NewRequest(http.MethodPost, "/v1/encode",
			encodeBody(t, nova.Request{KISS2: quickFSM, Name: "doomed"}))
		s.ServeHTTP(httptest.NewRecorder(), r.WithContext(ctx))
	}()
	// Wait until all four blocking requests are admitted and in flight.
	for s.inflight.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	// Failures: malformed bodies answer 400 after admission (the
	// remaining slots are free, so these are admitted, not bounced).
	for i := 0; i < 3; i++ {
		post(s, "/v1/encode", bytes.NewReader([]byte("{")))
	}
	// Drain mid-flight, then let everything settle.
	s.Drain()
	cancel()
	close(block)
	wg.Wait()

	vars := s.Vars()
	adm, com, fld, can := vars["serve.admitted"], vars["serve.completed"], vars["serve.failed"], vars["serve.canceled"]
	if adm == 0 {
		t.Fatal("nothing admitted")
	}
	if adm != com+fld+can {
		t.Fatalf("accounting identity broken: admitted %d != completed %d + failed %d + canceled %d",
			adm, com, fld, can)
	}
	if can == 0 {
		t.Fatal("the canceled client was not accounted as canceled")
	}
	if fld == 0 {
		t.Fatal("the failed requests were not accounted")
	}
}

// TestRequestObsDisabledAllocFree is the alloc-parity guard for the
// disabled path: with DisableRequestObs, settling a request (RED
// histograms + drain accounting, no recorder/log/ID) performs zero
// per-request heap allocations. The recorder's steady-state fast path
// (healthy request under the slow floor) is likewise allocation-free.
func TestRequestObsDisabledAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	s := New(Config{DisableRequestObs: true})
	ep := endpointKeysOf("/v1/encode")
	settle := func() {
		ro := reqObs{
			endpoint:  ep.name,
			status:    http.StatusOK,
			encodeObs: encodeObs{queue: 3 * time.Microsecond, encode: 40 * time.Microsecond},
			total:     50 * time.Microsecond,
		}
		s.finishObs(ep, &ro)
	}
	settle() // warm the histogram map entries
	if n := testing.AllocsPerRun(200, settle); n != 0 {
		t.Fatalf("disabled-path finishObs allocates %.1f per request, want 0", n)
	}

	rc := newRecorder(2)
	rc.consider(slowRec("a", 1000))
	rc.consider(slowRec("b", 2000))
	if n := testing.AllocsPerRun(200, func() {
		rc.consider(RequestRecord{Endpoint: "/v1/encode", Status: http.StatusOK, TotalMicros: 5})
	}); n != 0 {
		t.Fatalf("recorder fast path allocates %.1f per request, want 0", n)
	}
}

// TestDisableRequestObsEndToEnd checks the disabled mode over HTTP: no
// request ID header, empty flight recorder, but RED metrics and the
// drain accounting still live.
func TestDisableRequestObsEndToEnd(t *testing.T) {
	s := New(Config{DisableRequestObs: true})
	rq := nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}
	w := post(s, "/v1/encode", encodeBody(t, rq))
	if w.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Request-Id"); got != "" {
		t.Fatalf("disabled mode still issued a request ID %q", got)
	}
	var snap RecorderSnapshot
	dw := get(s, "/debug/requests", nil)
	if err := json.Unmarshal(dw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slowest) != 0 || len(snap.RecentFailures) != 0 {
		t.Fatalf("disabled mode recorded requests: %+v", snap)
	}
	vars := s.Vars()
	if vars["serve.admitted"] != 1 || vars["serve.completed"] != 1 {
		t.Fatalf("drain accounting off in disabled mode: %v", vars)
	}
	if vars["http.queue_wait./v1/encode.count"] != 1 {
		t.Fatalf("RED histograms off in disabled mode: %v", vars)
	}
}

// TestAccessLogLine checks the structured access log: one Info line per
// request carrying the ID and the latency split.
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{AccessLog: true, Logger: logger})
	rq := nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}
	body, _ := json.Marshal(rq)
	r := httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(body))
	r.Header.Set("X-Request-Id", "log-me")
	s.ServeHTTP(httptest.NewRecorder(), r)

	line := buf.String()
	for _, want := range []string{"msg=request", "id=log-me", "endpoint=/v1/encode", "status=200", "cache=miss", "total_us="} {
		if !strings.Contains(line, want) {
			t.Fatalf("access log line %q lacks %q", line, want)
		}
	}
}
