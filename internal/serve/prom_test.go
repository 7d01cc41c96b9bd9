package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"nova"
	"nova/internal/obs"
)

// promScrape parses a text exposition into sample values keyed by the
// full series string ("name{labels}"), verifying well-formedness as it
// goes: every sample's family has a # TYPE line above it, HELP comes
// before TYPE, and no family is declared twice.
func promScrape(t *testing.T, body string) map[string]int64 {
	t.Helper()
	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	samples := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if _, dup := typed[name]; dup {
				t.Fatalf("family %s declared twice", name)
			}
			if !helped[name] {
				t.Fatalf("family %s has TYPE before HELP", name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "untyped":
			default:
				t.Fatalf("family %s has bad type %q", name, typ)
			}
			typed[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment %q", line)
		}
		// A sample: name[{labels}] value
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample %q", line)
		}
		series, valstr := line[:i], line[i+1:]
		v, err := strconv.ParseInt(valstr, 10, 64)
		if err != nil {
			t.Fatalf("sample %q: value %q: %v", line, valstr, err)
		}
		name := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name = series[:j]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unbalanced labels in %q", line)
			}
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && typed[f] == "histogram" {
				family = f
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q emitted before (or without) its # TYPE", line)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("series %q emitted twice", series)
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestMetricsExposition drives mixed traffic and scrapes /metrics: the
// exposition must be well formed, cover the RED families, and agree
// with /debug/vars — one source of truth, two formats.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}
	body, _ := json.Marshal(rq)
	if w := post(s, "/v1/encode", bytes.NewReader(body)); w.Code != http.StatusOK {
		t.Fatalf("miss: %d %s", w.Code, w.Body)
	}
	if w := post(s, "/v1/encode", bytes.NewReader(body)); w.Code != http.StatusOK {
		t.Fatalf("hit: %d", w.Code)
	}
	if w := post(s, "/v1/encode", bytes.NewReader([]byte("{"))); w.Code != http.StatusBadRequest {
		t.Fatalf("bad: %d", w.Code)
	}

	mw := get(s, "/metrics", nil)
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mw.Code)
	}
	if ct := mw.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	samples := promScrape(t, mw.Body.String())

	wants := map[string]int64{
		`nova_http_requests_total`:                                                 3,
		`nova_http_endpoint_requests_total{endpoint="/v1/encode"}`:                 3,
		`nova_http_responses_total{code="200"}`:                                    2,
		`nova_http_responses_total{code="400"}`:                                    1,
		`nova_http_request_errors_total{endpoint="/v1/encode",kind="bad_request"}`: 1,
		`nova_cache_hits_total`:                                                    1,
		`nova_cache_misses_total`:                                                  1,
		`nova_engine_encodes_total`:                                                1,
		`nova_singleflight_requests_total{role="leader"}`:                          1,
		`nova_singleflight_requests_total{role="follower"}`:                        0,
		`nova_http_admitted_total`:                                                 3,
		`nova_http_admitted_outcomes_total{outcome="completed"}`:                   2,
		`nova_http_admitted_outcomes_total{outcome="failed"}`:                      1,
		`nova_http_admitted_outcomes_total{outcome="canceled"}`:                    0,
		`nova_http_inflight`:                                                       0,
		`nova_server_draining`:                                                     0,
	}
	for series, want := range wants {
		got, ok := samples[series]
		if !ok {
			t.Fatalf("series %s missing", series)
		}
		if got != want {
			t.Fatalf("%s = %d, want %d", series, got, want)
		}
	}

	// The latency family covers all three stages for the hit endpoint.
	for _, stage := range []string{"total", "queue", "encode"} {
		series := fmt.Sprintf(`nova_http_request_duration_microseconds_count{endpoint="/v1/encode",stage="%s"}`, stage)
		if _, ok := samples[series]; !ok {
			t.Fatalf("latency stage %s missing (have %d series)", stage, len(samples))
		}
	}
	// Histogram invariants: the +Inf bucket equals _count, and the
	// cumulative buckets never decrease.
	tot := `{endpoint="/v1/encode",stage="total"`
	inf := samples[`nova_http_request_duration_microseconds_bucket`+tot+`,le="+Inf"}`]
	cnt := samples[`nova_http_request_duration_microseconds_count`+tot+`}`]
	if inf != cnt || cnt != 3 {
		t.Fatalf("+Inf bucket %d vs count %d (want 3)", inf, cnt)
	}

	// Consistency with /debug/vars: same counters, different format.
	vars := s.Vars()
	pairs := []struct {
		series string
		key    string
	}{
		{`nova_http_requests_total`, "http.requests"},
		{`nova_cache_hits_total`, "cache.hits"},
		{`nova_engine_encodes_total`, "engine.encodes"},
		{`nova_singleflight_requests_total{role="leader"}`, "flight.leaders"},
		{`nova_http_admitted_total`, "serve.admitted"},
		{`nova_http_request_duration_microseconds_count` + tot + `}`, "http.latency./v1/encode.count"},
		{`nova_http_request_duration_microseconds_sum` + tot + `}`, "http.latency./v1/encode.sum"},
	}
	for _, p := range pairs {
		if samples[p.series] != vars[p.key] {
			t.Fatalf("%s = %d but vars[%s] = %d", p.series, samples[p.series], p.key, vars[p.key])
		}
	}
}

// TestMetricsBucketEdgesMatchVars pins the shared-edge contract
// (satellite: one source of truth for bucket boundaries): every
// <name>.le.<bound> series in Vars() appears in the exposition as a
// _bucket sample with the same le label and value.
func TestMetricsBucketEdgesMatchVars(t *testing.T) {
	s := New(Config{})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}
	if w := post(s, "/v1/encode", encodeBody(t, rq)); w.Code != http.StatusOK {
		t.Fatalf("encode: %d", w.Code)
	}
	mw := get(s, "/metrics", nil)
	samples := promScrape(t, mw.Body.String())

	found := 0
	for key, v := range s.metrics.Vars() {
		name, bound, ok := strings.Cut(key, ".le.")
		if !ok {
			continue
		}
		if bound == "+Inf" {
			continue // vars emits the last bucket only when non-empty; prom always emits +Inf
		}
		f, labels := promSeries(name, true)
		if f == nil {
			t.Fatalf("histogram %s has no family", name)
		}
		series := f.name + "_bucket" + promLE(labels, bound)
		got, there := samples[series]
		if !there {
			t.Fatalf("vars bucket %s has no exposition series %s", key, series)
		}
		if got != v {
			t.Fatalf("bucket %s: vars %d, exposition %d", key, v, got)
		}
		found++
	}
	if found == 0 {
		t.Fatal("no .le. bucket series in vars — nothing compared")
	}
}

// TestPromUnmatchedKeys: a key no row declares, or a prefixed key whose
// remainder cannot fill its row's labels, is exported as
// nova_counter{name="<key>"}, and so is every /debug/vars key of a
// histogram no family declares.
func TestPromUnmatchedKeys(t *testing.T) {
	var m obs.Metrics
	m.Observe("search.depth", 5)
	var b strings.Builder
	writeProm(&b, map[string]int64{"pool.tasks": 2, "http.errors.nokind": 1, `odd"key`: 3}, m.Histograms())
	got := promScrape(t, b.String())
	want := map[string]int64{
		`nova_counter{name="pool.tasks"}`:         2,
		`nova_counter{name="http.errors.nokind"}`: 1,
		`nova_counter{name="odd\"key"}`:           3,
		`nova_counter{name="search.depth.count"}`: 1,
		`nova_counter{name="search.depth.sum"}`:   5,
		`nova_counter{name="search.depth.max"}`:   5,
		`nova_counter{name="search.depth.le.7"}`:  1,
	}
	if len(got) != len(want) {
		t.Fatalf("exposition has %d series, want %d:\n%s", len(got), len(want), b.String())
	}
	for series, v := range want {
		if got[series] != v {
			t.Fatalf("%s = %d, want %d:\n%s", series, got[series], v, b.String())
		}
	}
}
