package nova

// Wire-layer tests for the portfolio request surface: the roster
// normalization baked into the cache key, the wire rule for the removed
// hedge_delay_ms field, and the winner metadata on responses.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func portfolioKey(t *testing.T, rq Request) string {
	t.Helper()
	k, err := rq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheKeyPortfolioNormalization: every spelling of the same race
// shares one cache entry — the explicit algorithm vs. the implied one,
// the default roster vs. the default roster written out, and a
// MaxCandidates truncation vs. the truncated roster spelled explicitly.
func TestCacheKeyPortfolioNormalization(t *testing.T) {
	defaultRoster := func() []WireCandidate {
		var ws []WireCandidate
		for _, c := range DefaultRoster() {
			ws = append(ws, WireCandidate{Algorithm: c.Algorithm, SeedSplit: c.SeedSplit})
		}
		return ws
	}

	implied := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{}}
	named := Request{KISS2: quickFSM, Algorithm: Portfolio}
	spelled := Request{KISS2: quickFSM, Algorithm: Portfolio, Portfolio: &WirePortfolio{Roster: defaultRoster()}}
	base := portfolioKey(t, implied)
	if portfolioKey(t, named) != base {
		t.Fatal("explicit portfolio algorithm and implied config split the cache")
	}
	if portfolioKey(t, spelled) != base {
		t.Fatal("default roster written out split the cache")
	}

	capped := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{Roster: defaultRoster(), MaxCandidates: 3}}
	explicit := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{Roster: defaultRoster()[:3]}}
	if portfolioKey(t, capped) != portfolioKey(t, explicit) {
		t.Fatal("MaxCandidates truncation and the explicit truncated roster split the cache")
	}
	if portfolioKey(t, capped) == base {
		t.Fatal("truncated roster shares the full roster's key")
	}

	// hedge_delay_ms is no longer a field: encoding/json ignores it like
	// any unknown field, so a request that still sends it decodes,
	// validates, shares the key of the same request without it and gets
	// the same response bytes.
	var hedged, plain Request
	for _, c := range []struct {
		rq   *Request
		body string
	}{
		{&hedged, `{"kiss2": ` + jsonString(t, quickFSM) + `, "portfolio": {"hedge_delay_ms": 250}}`},
		{&plain, `{"kiss2": ` + jsonString(t, quickFSM) + `, "portfolio": {}}`},
	} {
		if err := json.Unmarshal([]byte(c.body), c.rq); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if _, err := c.rq.Validate(); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
	}
	if portfolioKey(t, hedged) != base || portfolioKey(t, plain) != base {
		t.Fatal("hedge_delay_ms split the cache")
	}
	if hb, pb := responseBytes(t, hedged), responseBytes(t, plain); string(hb) != string(pb) {
		t.Fatalf("hedge_delay_ms changed the response:\n%s\n%s", hb, pb)
	}

	// A genuinely different roster is a different race.
	other := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{
		Roster: []WireCandidate{{Algorithm: IGreedy}, {Algorithm: IHybrid, SeedSplit: 4}},
	}}
	if portfolioKey(t, other) == base {
		t.Fatal("a custom roster shares the default roster's key")
	}

	// A plain Best request must not collide with the portfolio keys.
	if portfolioKey(t, Request{KISS2: quickFSM}) == base {
		t.Fatal("portfolio and Best requests share a key")
	}
}

func jsonString(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// responseBytes runs the request the way novad does and returns the
// serialized Response.
func responseBytes(t *testing.T, rq Request) []byte {
	t.Helper()
	f, err := rq.Validate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := EncodeContext(context.Background(), f, rq.Options())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ResponseOf(f, res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWirePortfolioConfig: the JSON shape maps onto PortfolioConfig
// field by field, and a nil wire config stays a nil nova config.
func TestWirePortfolioConfig(t *testing.T) {
	var nilWP *WirePortfolio
	if nilWP.Config() != nil {
		t.Fatal("nil WirePortfolio produced a config")
	}
	wp := &WirePortfolio{
		Roster:        []WireCandidate{{Algorithm: IExact}, {Algorithm: IHybrid, SeedSplit: 2}},
		MaxCandidates: 5,
	}
	pc := wp.Config()
	if len(pc.Roster) != 2 || pc.Roster[1].Algorithm != IHybrid || pc.Roster[1].SeedSplit != 2 {
		t.Fatalf("roster lost in translation: %+v", pc.Roster)
	}
	if pc.MaxCandidates != 5 {
		t.Fatalf("scalar fields lost: %+v", pc)
	}

	rq := Request{KISS2: quickFSM, Portfolio: wp}
	opt := rq.Options()
	if opt.Portfolio == nil || opt.Portfolio.MaxCandidates != 5 {
		t.Fatalf("Request.Options dropped the portfolio config: %+v", opt.Portfolio)
	}

	// Round-trip the request through JSON: the roster survives.
	data, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Portfolio == nil || len(back.Portfolio.Roster) != 2 || back.Portfolio.MaxCandidates != 5 {
		t.Fatalf("request round trip lost the portfolio: %+v", back.Portfolio)
	}
}

// TestResponseWinnerFields: a portfolio response carries the winner
// metadata under stable JSON keys.
func TestResponseWinnerFields(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: Portfolio, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rp := ResponseOf(f, res)
	if rp.Algorithm != Portfolio || rp.Winner != res.Winner {
		t.Fatalf("winner metadata lost: %+v", rp)
	}
	rp.WinnerSeedSplit = 3 // force the omitempty field to serialize
	data, err := json.Marshal(rp)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"winner"`, `"winner_seed_split"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized Response lost %s:\n%s", key, data)
		}
	}
	// Non-portfolio responses omit the winner entirely.
	plain, err := Encode(f, Options{Algorithm: IGreedy})
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(ResponseOf(f, plain))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"winner"`) {
		t.Fatalf("plain response serialized a winner:\n%s", data)
	}
}

// TestRequestValidatePortfolio: the wire validation path rejects the
// same bad configs the Options path does.
func TestRequestValidatePortfolio(t *testing.T) {
	bad := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{
		Roster: []WireCandidate{{Algorithm: Portfolio}},
	}}
	if _, err := bad.Validate(); err == nil {
		t.Fatal("wire validation accepted a nested portfolio roster")
	}
	conflict := Request{KISS2: quickFSM, Algorithm: IExact, Portfolio: &WirePortfolio{}}
	if _, err := conflict.Validate(); err == nil {
		t.Fatal("wire validation accepted a conflicting algorithm + portfolio config")
	}
}
