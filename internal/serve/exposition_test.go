package serve

// Exposition golden: every /metrics line and every /debug/vars key and
// value after a fixed traffic script, before and after a drain, pinned
// to ../../testdata/golden/exposition.golden. A refactor of how the
// server declares or renders its metrics must leave both views as they
// are; this test fails on any drift. Regenerate deliberately with
//
//	go test ./internal/serve -run TestGoldenExposition -update
//
// and review the diff like any other behaviour change. Only timing is
// masked: the _sum and finite _bucket lines of the request-duration
// family, and the .sum, .max and .le.<bound> keys of the latency
// histograms. A run of masked lines collapses into one.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"nova"
)

var update = flag.Bool("update", false, "rewrite the golden file")

const expositionGolden = "../../testdata/golden/exposition.golden"

func TestGoldenExposition(t *testing.T) {
	// A latency-only injector ticks fault.injected.latency on every POST
	// without changing any outcome.
	s := New(Config{FaultInjection: &FaultConfig{LatencyRate: 1, Latency: time.Microsecond}})
	rq := nova.Request{KISS2: quickFSM, Name: "quick", Algorithm: nova.IGreedy}
	var rp nova.Response
	for _, want := range []string{"MISS", "HIT"} {
		w := post(s, "/v1/encode", encodeBody(t, rq))
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
			t.Fatalf("encode: %d, X-Cache %q, want 200 %s: %s", w.Code, w.Header().Get("X-Cache"), want, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rp); err != nil {
			t.Fatal(err)
		}
	}
	if w := post(s, "/v1/encode", bytes.NewReader([]byte("{"))); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", w.Code)
	}
	bq, _ := json.Marshal(BatchRequest{Requests: []nova.Request{
		{KISS2: quickFSM, Name: "quick", Algorithm: nova.IHybrid},
		{KISS2: quickFSM, Name: "bad", Algorithm: "bogus"},
	}})
	if w := post(s, "/v1/encode/batch", bytes.NewReader(bq)); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body)
	}
	vq, _ := json.Marshal(nova.VerifyRequest{KISS2: quickFSM, States: rp.States})
	if w := post(s, "/v1/verify", bytes.NewReader(vq)); w.Code != http.StatusOK {
		t.Fatalf("verify: %d %s", w.Code, w.Body)
	}

	var b strings.Builder
	b.WriteString("# Regenerate with: go test ./internal/serve -run TestGoldenExposition -update\n")
	writeExposition(t, &b, s, "before drain")
	s.Drain()
	if w := post(s, "/v1/encode", encodeBody(t, rq)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining refusal: %d", w.Code)
	}
	writeExposition(t, &b, s, "after drain")
	got := b.String()

	if *update {
		if err := os.WriteFile(expositionGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", expositionGolden)
		return
	}
	data, err := os.ReadFile(expositionGolden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	want := strings.Split(string(data), "\n")
	have := strings.Split(got, "\n")
	for i := 0; i < len(want) || i < len(have); i++ {
		var w, h string
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Fatalf("exposition drift at line %d\n  golden: %s\n  got:    %s", i+1, w, h)
		}
	}
}

// writeExposition appends both views of s under a title line each.
func writeExposition(t *testing.T, b *strings.Builder, s *Server, when string) {
	t.Helper()
	mw := get(s, "/metrics", nil)
	if mw.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mw.Code)
	}
	fmt.Fprintf(b, "== /metrics %s\n", when)
	var last string
	put := func(line string) {
		if line != last {
			b.WriteString(line + "\n")
		}
		last = line
	}
	for _, line := range strings.Split(strings.TrimSuffix(mw.Body.String(), "\n"), "\n") {
		put(maskPromTiming(line))
	}

	vw := get(s, "/debug/vars", nil)
	if vw.Code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", vw.Code)
	}
	var payload struct {
		Nova map[string]int64 `json:"nova"`
	}
	if err := json.Unmarshal(vw.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(payload.Nova))
	for k := range payload.Nova {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "== /debug/vars %s\n", when)
	last = ""
	for _, k := range keys {
		put(maskVarsTiming(k, payload.Nova[k]))
	}
}

// maskPromTiming masks the timing samples of the request-duration
// family: _sum values, and the bound and value of finite buckets.
func maskPromTiming(line string) string {
	const fam = "nova_http_request_duration_microseconds"
	switch {
	case strings.HasPrefix(line, fam+"_sum"):
		return line[:strings.LastIndexByte(line, ' ')] + " *"
	case strings.HasPrefix(line, fam+"_bucket") && !strings.Contains(line, `le="+Inf"`):
		return line[:strings.LastIndex(line, `le="`)] + `le="*"} *`
	}
	return line
}

// maskVarsTiming renders one /debug/vars pair, masking the timing keys
// of the latency histograms: .sum, .max and every .le.<bound>.
func maskVarsTiming(key string, v int64) string {
	if !strings.HasPrefix(key, "http.latency.") && !strings.HasPrefix(key, "http.queue_wait.") &&
		!strings.HasPrefix(key, "http.encode.") {
		return fmt.Sprintf("%s %d", key, v)
	}
	if name, _, ok := strings.Cut(key, ".le."); ok {
		return name + ".le.* *"
	}
	if strings.HasSuffix(key, ".sum") || strings.HasSuffix(key, ".max") {
		return key + " *"
	}
	return fmt.Sprintf("%s %d", key, v)
}
