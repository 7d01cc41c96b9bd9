package serve

// End-to-end portfolio serving: a portfolio request runs the race,
// returns the winner, different spellings of the same roster share one
// cache entry, and a race cut short by its deadline is never cached.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"nova"
)

func TestEncodePortfolioEndToEnd(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.Portfolio}
	w := post(s, "/v1/encode", encodeBody(t, rq))
	if w.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", w.Code, w.Body)
	}
	var rp nova.Response
	if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.Algorithm != nova.Portfolio {
		t.Fatalf("algorithm %q, want portfolio", rp.Algorithm)
	}
	if rp.Winner == "" || rp.Winner == nova.Portfolio {
		t.Fatalf("winner %q, want a concrete roster algorithm", rp.Winner)
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
		t.Fatalf("served portfolio assignment fails verify: %v", err)
	}

	// A different spelling of the same race — the default roster implied
	// by an empty config instead of the named algorithm — must hit the
	// same cache entry byte for byte.
	other := nova.Request{KISS2: quickFSM, Name: "quick", Portfolio: &nova.WirePortfolio{}}
	hit := post(s, "/v1/encode", encodeBody(t, other))
	if hit.Code != http.StatusOK {
		t.Fatalf("second POST: %d %s", hit.Code, hit.Body)
	}
	if got := hit.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("normalized respelling missed the cache: X-Cache = %q", got)
	}
	if !bytes.Equal(w.Body.Bytes(), hit.Body.Bytes()) {
		t.Fatal("cached portfolio replay differs")
	}
	if n := s.encodes.Load(); n != 1 {
		t.Fatalf("engine ran %d times for one normalized race", n)
	}

	// A custom roster is a different race: a miss, and its own winner.
	custom := nova.Request{KISS2: quickFSM, Name: "quick", Portfolio: &nova.WirePortfolio{
		Roster: []nova.WireCandidate{{Algorithm: nova.IGreedy}},
	}}
	cw := post(s, "/v1/encode", encodeBody(t, custom))
	if cw.Code != http.StatusOK {
		t.Fatalf("custom roster POST: %d %s", cw.Code, cw.Body)
	}
	if got := cw.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("custom roster reused the default roster's entry: X-Cache = %q", got)
	}
	var crp nova.Response
	if err := json.Unmarshal(cw.Body.Bytes(), &crp); err != nil {
		t.Fatal(err)
	}
	if crp.Winner != nova.IGreedy {
		t.Fatalf("one-candidate roster winner %q, want igreedy", crp.Winner)
	}
}

// TestEncodePortfolioBadRoster: wire validation turns a bad roster into
// a 400 before any engine work.
func TestEncodePortfolioBadRoster(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Portfolio: &nova.WirePortfolio{
		Roster: []nova.WireCandidate{{Algorithm: "bogus"}},
	}}
	w := post(s, "/v1/encode", encodeBody(t, rq))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body)
	}
	if s.encodes.Load() != 0 {
		t.Fatal("a bad roster reached the engine")
	}
}

// TestEncodePortfolioDeadlineNotCached: a ?timeout= that fires mid-race
// answers 504 canceled and caches nothing, although igreedy had already
// finished: the random batch cut short might have won. The request
// without a timeout that follows runs the whole race (a MISS) instead
// of replaying igreedy's cover. At the server's default Parallelism of 1
// the candidates run in roster order: igreedy takes well under a
// millisecond on this machine, the 8,000-trial random batch about 300 ms
// (2 vCPU).
func TestEncodePortfolioDeadlineNotCached(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", RandomTrials: 8000, Portfolio: &nova.WirePortfolio{
		Roster: []nova.WireCandidate{{Algorithm: nova.IGreedy}, {Algorithm: nova.Random}},
	}}
	w := post(s, "/v1/encode?timeout=30ms", encodeBody(t, rq))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	var rp nova.Response
	if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
		t.Fatal(err)
	}
	if rp.ErrorKind != nova.ErrKindCanceled {
		t.Fatalf("error_kind = %q, want %q", rp.ErrorKind, nova.ErrKindCanceled)
	}
	if n := s.Vars()["cache.entries"]; n != 0 {
		t.Fatalf("cache.entries = %d after a canceled race, want 0", n)
	}
	full := post(s, "/v1/encode", encodeBody(t, rq))
	if full.Code != http.StatusOK {
		t.Fatalf("untimed POST: %d %s", full.Code, full.Body)
	}
	if got := full.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("untimed request after a canceled race: X-Cache = %q, want MISS", got)
	}
}
