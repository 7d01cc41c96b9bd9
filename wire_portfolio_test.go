package nova

// Wire-layer tests for the portfolio request surface: the resolved
// roster baked into the cache key, the wire rule for the removed
// hedge_delay_ms, seed_split and max_candidates fields, and the winner
// metadata on responses.

import (
	"context"
	"encoding/json"
	"slices"
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
// and the default roster vs. the default roster written out — while a
// shorter roster is a different race.
func TestCacheKeyPortfolioNormalization(t *testing.T) {
	defaultRoster := func() []WireCandidate {
		var ws []WireCandidate
		for _, a := range DefaultRoster() {
			ws = append(ws, WireCandidate{Algorithm: a})
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

	short := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{Roster: defaultRoster()[:3]}}
	if portfolioKey(t, short) == base {
		t.Fatal("truncated roster shares the full roster's key")
	}

	// hedge_delay_ms, seed_split and max_candidates are no longer
	// fields: encoding/json ignores them like any unknown field, so a
	// request that still sends them decodes, validates, races its full
	// roster under that roster's key and gets the same response bytes
	// as the same request without them.
	var old, plain Request
	for _, c := range []struct {
		rq   *Request
		body string
	}{
		{&old, `{"kiss2": ` + jsonString(t, quickFSM) + `, "portfolio": {"roster": [
		  {"algorithm": "ihybrid"}, {"algorithm": "iohybrid", "seed_split": 2}, {"algorithm": "iexact"},
		  {"algorithm": "igreedy"}], "max_candidates": 1, "hedge_delay_ms": 250}}`},
		{&plain, `{"kiss2": ` + jsonString(t, quickFSM) + `, "portfolio": {}}`},
	} {
		if err := json.Unmarshal([]byte(c.body), c.rq); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		if _, err := c.rq.Validate(); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
	}
	if portfolioKey(t, old) != base || portfolioKey(t, plain) != base {
		t.Fatal("a removed portfolio field split the cache")
	}
	if ob, pb := responseBytes(t, old), responseBytes(t, plain); string(ob) != string(pb) {
		t.Fatalf("a removed portfolio field changed the response:\n%s\n%s", ob, pb)
	}

	// A genuinely different roster is a different race.
	other := Request{KISS2: quickFSM, Portfolio: &WirePortfolio{
		Roster: []WireCandidate{{Algorithm: IGreedy}, {Algorithm: IHybrid}},
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

// TestWirePortfolioConfig: the wire roster maps onto PortfolioConfig's
// algorithms in order, and a nil wire config stays a nil nova config.
func TestWirePortfolioConfig(t *testing.T) {
	var nilWP *WirePortfolio
	if nilWP.Config() != nil {
		t.Fatal("nil WirePortfolio produced a config")
	}
	wp := &WirePortfolio{Roster: []WireCandidate{{Algorithm: IExact}, {Algorithm: IHybrid}}}
	want := []Algorithm{IExact, IHybrid}
	if pc := wp.Config(); !slices.Equal(pc.Roster, want) {
		t.Fatalf("roster lost in translation: %v, want %v", pc.Roster, want)
	}

	rq := Request{KISS2: quickFSM, Portfolio: wp}
	opt := rq.Options()
	if opt.Portfolio == nil || !slices.Equal(opt.Portfolio.Roster, want) {
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
	if back.Portfolio == nil || !slices.Equal(back.Portfolio.Config().Roster, want) {
		t.Fatalf("request round trip lost the portfolio: %+v", back.Portfolio)
	}
}

// TestResponseWinnerFields: a portfolio response carries the winner
// under a stable JSON key.
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
	data, err := json.Marshal(rp)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"winner":"` + string(res.Winner) + `"`; !strings.Contains(string(data), want) {
		t.Fatalf("serialized Response lost %s:\n%s", want, data)
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
