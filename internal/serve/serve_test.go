package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nova"
)

const quickFSM = `
.i 1
.o 1
.s 4
.r c0
0 c0 c1 0
1 c0 c3 1
0 c1 c2 1
1 c1 c0 0
0 c2 c3 1
1 c2 c1 0
0 c3 c0 0
1 c3 c2 1
.e
`

func encodeBody(t *testing.T, rq nova.Request) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func post(s *Server, target string, body *bytes.Reader) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, target, body)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// TestEncodeCacheHitIsByteIdentical is the acceptance criterion of the
// serving layer: repeating an identical POST /v1/encode returns the
// cached bytes verbatim — hit counter up, no second engine run.
func TestEncodeCacheHitIsByteIdentical(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}

	first := post(s, "/v1/encode", encodeBody(t, rq))
	if first.Code != http.StatusOK {
		t.Fatalf("first POST: %d %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first X-Cache = %q", got)
	}
	second := post(s, "/v1/encode", encodeBody(t, rq))
	if second.Code != http.StatusOK {
		t.Fatalf("second POST: %d %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second X-Cache = %q", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cached replay differs:\n%s\n%s", first.Body, second.Body)
	}

	vars := s.Vars()
	if vars["cache.hits"] != 1 {
		t.Fatalf("cache.hits = %d, want 1", vars["cache.hits"])
	}
	if vars["engine.encodes"] != 1 {
		t.Fatalf("engine ran %d times, want 1", vars["engine.encodes"])
	}

	// The served body is a usable wire Response whose assignment verifies
	// against the machine it encodes.
	var rp nova.Response
	if err := json.Unmarshal(second.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.Machine != "quick" || rp.Area <= 0 {
		t.Fatalf("response %+v", rp)
	}
	f, err := nova.ParseKISSString(quickFSM)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := rp.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if err := nova.Verify(f, asg); err != nil {
		t.Fatalf("served assignment fails verify: %v", err)
	}
}

// TestEncodeSingleflightCollapse holds one encode open while identical
// requests pile up: exactly one engine run serves them all.
func TestEncodeSingleflightCollapse(t *testing.T) {
	const concurrent = 4
	s := New(Config{MaxInflight: concurrent + 1})
	started := make(chan struct{})
	release := make(chan struct{})
	realEncode := s.encode
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		started <- struct{}{}
		<-release
		return realEncode(ctx, f, opt)
	}
	rq := nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}

	var wg sync.WaitGroup
	bodies := make([][]byte, concurrent)
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := post(s, "/v1/encode", encodeBody(t, rq))
			if w.Code != http.StatusOK {
				t.Errorf("request %d: %d %s", i, w.Code, w.Body)
			}
			bodies[i] = w.Body.Bytes()
		}()
	}
	<-started // the leader is inside the engine
	// Wait until every other request joined the leader's flight.
	for s.flights.Shared() < concurrent-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := s.encodes.Load(); n != 1 {
		t.Fatalf("engine ran %d times for %d identical requests", n, concurrent)
	}
	for i := 1; i < concurrent; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d got different bytes", i)
		}
	}
}

// TestEncodeMidRequestCancellation cancels the client while the engine
// is running; the handler must return promptly with the 499 accounting
// status and the engine context must be dead.
func TestEncodeMidRequestCancellation(t *testing.T) {
	s := New(Config{})
	engineCtxDead := make(chan error, 1)
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		<-ctx.Done()
		engineCtxDead <- ctx.Err()
		return nil, fmt.Errorf("nova: canceled: %w", nova.ErrCanceled)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := httptest.NewRequest(http.MethodPost, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM}))
	r = r.WithContext(ctx)
	w := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, r)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}
	if err := <-engineCtxDead; err == nil {
		t.Fatal("engine context survived the client hangup")
	}
	if w.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d", w.Code, statusClientClosedRequest)
	}
	if s.Vars()["cache.entries"] != 0 {
		t.Fatal("a canceled run was cached")
	}
}

// TestEncodeTimeoutParam drives the per-request deadline: a tiny
// ?timeout= on a slow encode must answer 504.
func TestEncodeTimeoutParam(t *testing.T) {
	s := New(Config{})
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("nova: canceled: %w", nova.ErrCanceled)
	}
	w := post(s, "/v1/encode?timeout=10ms", encodeBody(t, nova.Request{KISS2: quickFSM}))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	var rp nova.Response
	if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.ErrorKind != nova.ErrKindCanceled {
		t.Fatalf("error_kind = %q", rp.ErrorKind)
	}

	// A malformed timeout is a 400 before any engine work.
	w = post(s, "/v1/encode?timeout=bogus", encodeBody(t, nova.Request{KISS2: quickFSM}))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout: status = %d", w.Code)
	}
}

// TestSaturationAnswers429 fills the only admission slot and requires
// the next request to bounce with 429 + Retry-After instead of queueing.
func TestSaturationAnswers429(t *testing.T) {
	s := New(Config{MaxInflight: 1, QueueWait: -1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		close(started)
		<-release
		return nil, fmt.Errorf("nova: canceled: %w", nova.ErrCanceled)
	}
	go post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM}))
	<-started

	w := post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM}))
	close(release)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.Vars()["http.rejected.saturated"] != 1 {
		t.Fatal("saturation rejection not counted")
	}
}

// TestDrainRefusesNewFinishesInflight pins the graceful-drain contract:
// after Drain, healthz and new work answer 503, but a request already in
// flight completes normally.
func TestDrainRefusesNewFinishesInflight(t *testing.T) {
	s := New(Config{MaxInflight: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	realEncode := s.encode
	s.encode = func(ctx context.Context, f *nova.FSM, opt nova.Options) (*nova.Result, error) {
		close(started)
		<-release
		return realEncode(ctx, f, opt)
	}

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}))
	}()
	<-started

	s.Drain()

	// Load balancers see the drain on healthz…
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if hw.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hw.Code)
	}
	// …new work is refused with Retry-After…
	nw := post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM}))
	if nw.Code != http.StatusServiceUnavailable || nw.Header().Get("Retry-After") == "" {
		t.Fatalf("new work while draining: %d, Retry-After %q", nw.Code, nw.Header().Get("Retry-After"))
	}
	// …and the in-flight request still completes.
	close(release)
	w := <-inflight
	if w.Code != http.StatusOK {
		t.Fatalf("in-flight request died in the drain: %d %s", w.Code, w.Body)
	}
}

// TestEncodeBadRequests maps malformed inputs onto 400s.
func TestEncodeBadRequests(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"empty kiss2", `{}`},
		{"malformed kiss2", `{"kiss2": ".i nope"}`},
		{"unknown algorithm", `{"kiss2": "` + strings.ReplaceAll(strings.TrimSpace(quickFSM), "\n", `\n`) + `", "algorithm": "bogus"}`},
	}
	for _, tc := range cases {
		w := post(s, "/v1/encode", bytes.NewReader([]byte(tc.body)))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400; body %s", tc.name, w.Code, w.Body)
		}
		var rp nova.Response
		if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
			t.Fatalf("%s: error body is not a Response: %v", tc.name, err)
		}
		if rp.ErrorKind != nova.ErrKindBadRequest || rp.Error == "" {
			t.Fatalf("%s: error fields %+v", tc.name, rp)
		}
	}
	if s.encodes.Load() != 0 {
		t.Fatal("a bad request reached the engine")
	}
}

// TestBatchPartialResults posts a batch with one bad item: the sibling
// succeeds, the bad item carries its error inline, nothing aborts. The
// good item misses the cache, so the batch is observed with its engine
// time: one sample in the batch's encode-stage histogram and a nonzero
// encode_us in the flight recorder.
func TestBatchPartialResults(t *testing.T) {
	s := New(Config{})
	bq := BatchRequest{Requests: []nova.Request{
		{KISS2: quickFSM, Name: "good", Algorithm: nova.IGreedy},
		{KISS2: quickFSM, Name: "bad", Algorithm: "bogus"},
	}}
	b, err := json.Marshal(bq)
	if err != nil {
		t.Fatal(err)
	}
	w := post(s, "/v1/encode/batch", bytes.NewReader(b))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var out BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 2 {
		t.Fatalf("%d responses for 2 requests", len(out.Responses))
	}
	var good, bad nova.Response
	if err := json.Unmarshal(out.Responses[0], &good); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Responses[1], &bad); err != nil {
		t.Fatal(err)
	}
	if good.Error != "" || good.Area <= 0 {
		t.Fatalf("good item: %+v", good)
	}
	if bad.ErrorKind != nova.ErrKindBadRequest || bad.Machine != "bad" {
		t.Fatalf("bad item: %+v", bad)
	}
	if n := s.Vars()["http.encode./v1/encode/batch.count"]; n != 1 {
		t.Fatalf("http.encode./v1/encode/batch.count = %d, want 1", n)
	}
	var snap RecorderSnapshot
	if err := json.Unmarshal(get(s, "/debug/requests", nil).Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Slowest) != 1 || snap.Slowest[0].Endpoint != "/v1/encode/batch" || snap.Slowest[0].EncodeMicros <= 0 {
		t.Fatalf("batch record %+v, want one /v1/encode/batch record with encode_us > 0", snap.Slowest)
	}

	// The batch warmed the cache: the same machine as a point request is
	// now a hit.
	pw := post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM, Name: "good", Algorithm: nova.IGreedy}))
	if got := pw.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("point request after batch: X-Cache = %q", got)
	}
}

// TestMalformedTableIsAnError: a table whose rows disagree with a later
// .i is a bad request: an inline bad_request error in a batch, and HTTP
// 400 with kind bad_request on the point endpoint — twice, so nothing
// of the failed request lingers.
func TestMalformedTableIsAnError(t *testing.T) {
	const malformed = ".o 1\n- a b 1\n- b a 0\n.i 2\n"
	s := New(Config{})
	bq := BatchRequest{Requests: []nova.Request{
		{KISS2: quickFSM, Name: "good", Algorithm: nova.IGreedy},
		{KISS2: malformed, Name: "malformed", Algorithm: nova.IGreedy},
	}}
	b, err := json.Marshal(bq)
	if err != nil {
		t.Fatal(err)
	}
	w := post(s, "/v1/encode/batch", bytes.NewReader(b))
	if w.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", w.Code, w.Body)
	}
	var out BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var good, bad nova.Response
	if err := json.Unmarshal(out.Responses[0], &good); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Responses[1], &bad); err != nil {
		t.Fatal(err)
	}
	if good.Error != "" || good.Area <= 0 {
		t.Fatalf("good item: %+v", good)
	}
	if bad.Error == "" || bad.ErrorKind != nova.ErrKindBadRequest || bad.Machine != "malformed" {
		t.Fatalf("malformed item: %+v", bad)
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		r := httptest.NewRequest(http.MethodPost, "/v1/encode",
			encodeBody(t, nova.Request{KISS2: malformed, Algorithm: nova.Best})).WithContext(ctx)
		pw := httptest.NewRecorder()
		s.ServeHTTP(pw, r)
		cancel()
		var rp nova.Response
		if err := json.Unmarshal(pw.Body.Bytes(), &rp); err != nil {
			t.Fatalf("point request %d: body is not a Response: %v", i, err)
		}
		if pw.Code != http.StatusBadRequest || rp.Error == "" || rp.ErrorKind != nova.ErrKindBadRequest {
			t.Fatalf("point request %d: status %d, %+v", i, pw.Code, rp)
		}
	}
}

// TestBatchBounds rejects empty and oversized batches.
func TestBatchBounds(t *testing.T) {
	s := New(Config{MaxBatch: 2})
	for _, body := range []string{
		`{"requests": []}`,
		`{"requests": [{}, {}, {}]}`,
	} {
		w := post(s, "/v1/encode/batch", bytes.NewReader([]byte(body)))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, w.Code)
		}
	}
}

// TestVerifyEndpoint round-trips a served encoding through /v1/verify
// and checks that a wrong code answers ok=false (not an HTTP error).
func TestVerifyEndpoint(t *testing.T) {
	s := New(Config{})
	ew := post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM, Algorithm: nova.IGreedy}))
	if ew.Code != http.StatusOK {
		t.Fatalf("encode: %d", ew.Code)
	}
	var rp nova.Response
	if err := json.Unmarshal(ew.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}

	vq := nova.VerifyRequest{KISS2: quickFSM, States: rp.States}
	b, _ := json.Marshal(vq)
	vw := post(s, "/v1/verify", bytes.NewReader(b))
	if vw.Code != http.StatusOK {
		t.Fatalf("verify: %d %s", vw.Code, vw.Body)
	}
	var vr nova.VerifyResponse
	if err := json.Unmarshal(vw.Body.Bytes(), &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.OK {
		t.Fatalf("served encoding does not verify: %+v", vr)
	}

	// Break the code table: duplicate codes cannot implement the machine.
	vq.States = &nova.WireEncoding{Bits: rp.States.Bits, Codes: make([]string, len(rp.States.Codes))}
	for i := range vq.States.Codes {
		vq.States.Codes[i] = rp.States.Codes[0]
	}
	b, _ = json.Marshal(vq)
	vw = post(s, "/v1/verify", bytes.NewReader(b))
	if vw.Code != http.StatusOK {
		t.Fatalf("verify mismatch: %d", vw.Code)
	}
	if err := json.Unmarshal(vw.Body.Bytes(), &vr); err != nil {
		t.Fatal(err)
	}
	if vr.OK || vr.Error == "" {
		t.Fatalf("duplicate codes verified: %+v", vr)
	}

	// A malformed verify request is still a 400.
	vw = post(s, "/v1/verify", bytes.NewReader([]byte(`{"kiss2": ""}`)))
	if vw.Code != http.StatusBadRequest {
		t.Fatalf("malformed verify: %d", vw.Code)
	}
}

// TestHealthzAndVars smoke-checks the two GET endpoints.
func TestHealthzAndVars(t *testing.T) {
	s := New(Config{})
	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if hw.Code != http.StatusOK {
		t.Fatalf("healthz: %d", hw.Code)
	}

	post(s, "/v1/encode", encodeBody(t, nova.Request{KISS2: quickFSM}))
	vw := httptest.NewRecorder()
	s.ServeHTTP(vw, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if vw.Code != http.StatusOK {
		t.Fatalf("vars: %d", vw.Code)
	}
	var payload struct {
		Nova map[string]int64 `json:"nova"`
	}
	if err := json.Unmarshal(vw.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"http.requests", "cache.misses", "engine.encodes", "http.latency./v1/encode.count"} {
		if _, ok := payload.Nova[key]; !ok {
			t.Fatalf("/debug/vars lost %q: %v", key, payload.Nova)
		}
	}
}

// TestBodyBound refuses request bodies over the configured limit.
func TestBodyBound(t *testing.T) {
	s := New(Config{MaxBodyBytes: 128})
	big := nova.Request{KISS2: quickFSM + strings.Repeat("# pad\n", 100)}
	w := post(s, "/v1/encode", encodeBody(t, big))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status = %d, want 400", w.Code)
	}
}
