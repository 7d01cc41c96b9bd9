package nova_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"nova"
	"nova/internal/bench"
	"nova/internal/serve"
)

// glossaryKeys parses the glossary table under heading in
// docs/OBSERVABILITY.md into keys. Shorthand and placeholders follow the
// doc's conventions:
//
//   - `a.b` / `.c` means a.b and a.c (the leading-dot span replaces the
//     last field of the previous full key);
//   - `a.b` / `a.c` lists two full keys;
//   - a `<placeholder>` truncates the key to its literal prefix, matched
//     by prefix against the run's keys.
func glossaryKeys(t *testing.T, heading string) (exact map[string]bool, prefixes []string) {
	t.Helper()
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(data), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("docs/OBSERVABILITY.md lost its %q section", heading)
	}
	if i := strings.Index(sec, "\n## "); i >= 0 {
		sec = sec[:i]
	}
	span := regexp.MustCompile("`([^`]+)`")
	exact = make(map[string]bool)
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, ok := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		if !ok {
			continue
		}
		var prev string
		for _, m := range span.FindAllStringSubmatch(cell, -1) {
			key := m[1]
			if strings.HasPrefix(key, ".") {
				if prev == "" {
					t.Fatalf("glossary row %q: leading-dot shorthand without a previous key", line)
				}
				key = prev[:strings.LastIndexByte(prev, '.')] + key
			} else {
				prev = key
			}
			if i := strings.IndexByte(key, '<'); i >= 0 {
				if i == 0 {
					t.Fatalf("glossary key %q is all placeholder", key)
				}
				prefixes = append(prefixes, key[:i])
				continue
			}
			exact[key] = true
		}
	}
	if len(exact)+len(prefixes) == 0 {
		t.Fatalf("no keys parsed from the %q glossary", heading)
	}
	return exact, prefixes
}

// checkGlossary compares the glossary under heading with the keys a run
// produced, in both directions: every documented key or placeholder
// prefix was produced (unless exempt, for keys that depend on
// scheduling), and every produced key is documented. Each exemption must
// itself be a glossary key, since a stale one is doc drift too.
func checkGlossary(t *testing.T, heading string, got map[string]int64, exempt map[string]bool) {
	t.Helper()
	exact, prefixes := glossaryKeys(t, heading)
	hasPrefix := func(key string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(key, p) {
				return true
			}
		}
		return false
	}

	var missing []string
	for key := range exact {
		if _, ok := got[key]; !ok && !exempt[key] {
			missing = append(missing, key)
		}
	}
	for _, p := range prefixes {
		found := false
		for key := range got {
			if strings.HasPrefix(key, p) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, p+"<...>")
		}
	}
	if len(missing) > 0 {
		t.Errorf("%q documents keys the run never produced: %v\n"+
			"(either the key was removed — update docs/OBSERVABILITY.md — or the run no longer reaches it)", heading, missing)
	}

	var undocumented []string
	for key := range got {
		if !exact[key] && !hasPrefix(key) {
			undocumented = append(undocumented, key)
		}
	}
	if len(undocumented) > 0 {
		t.Errorf("the run produced keys missing from the docs/OBSERVABILITY.md %q table: %v", heading, undocumented)
	}

	for key := range exempt {
		if !exact[key] {
			t.Errorf("exemption %q is not in the %q glossary", key, heading)
		}
	}
}

// driftFSM is big enough to exercise the searcher (backtracks, failed
// face checks) without slowing the test down.
const driftFSM = `
.i 2
.o 2
.s 7
.r st0
00 st0 st1 01
01 st0 st2 10
10 st0 st3 00
11 st0 st0 11
00 st1 st2 01
01 st1 st4 10
1- st1 st0 00
00 st2 st5 11
01 st2 st3 00
10 st2 st1 01
11 st2 st6 10
0- st3 st4 01
10 st3 st0 10
11 st3 st5 00
00 st4 st6 11
01 st4 st0 01
1- st4 st2 10
00 st5 st0 00
01 st5 st6 01
1- st5 st3 11
0- st6 st1 10
1- st6 st5 01
.e
`

// scheduleExempt lists glossary counters that legitimately may not fire
// in a small deterministic run: they depend on scheduler timing (a spare
// worker existing at the right instant) or on the machine's shape. The
// guard still fails if the doc names a counter that is neither produced
// nor exempted — the doc-drift this test exists to catch.
var scheduleExempt = map[string]bool{
	"pool.inline": true, // needs a saturated pool
}

// glossaryRuns counts the executions of TestGlossaryCountersAppearInTracedRun
// in this process. The search memo is process-wide, so under -count=N every
// later execution finds the chains of the earlier ones memoized; each
// execution therefore also encodes ringFSM at a state count of its own,
// whose chain no earlier execution searched (search.memo.miss).
var glossaryRuns int

// ringFSM returns an n-state machine in which states 2j and 2j+1 share
// next state j and output under input 1-, so its ihybrid chain has
// constraints to embed.
func ringFSM(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".i 2\n.o 1\n.s %d\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "00 s%d s%d 0\n", i, (i+1)%n)
		fmt.Fprintf(&b, "01 s%d s%d %d\n", i, (i+2)%n, i%2)
		fmt.Fprintf(&b, "1- s%d s%d 1\n", i, i/2)
	}
	b.WriteString(".e\n")
	return b.String()
}

// TestGlossaryCountersAppearInTracedRun is the doc-drift guard for the
// counter glossary: every key docs/OBSERVABILITY.md documents must be
// produced by a real traced run (or carry a scheduling exemption above),
// and — the reverse direction — every counter the run produces must be
// documented.
func TestGlossaryCountersAppearInTracedRun(t *testing.T) {
	f, err := nova.ParseKISSString(driftFSM)
	if err != nil {
		t.Fatal(err)
	}
	f.Name = "drift"
	tracer := nova.NewTracer()

	// One portfolio race (algo.*, portfolio.won, portfolio.winner.*),
	// then a parallel ihybrid encode on the same tracer twice (espresso,
	// tautology calls, arena cubes allocated and reused, searcher
	// work/backtracks/checks, pool tasks/depths), then an ihybrid encode
	// of dk17, whose chain has steps no face embedding can satisfy
	// (search.refuted), and one of a ring machine no earlier execution
	// encoded.
	if _, err := nova.Encode(f, nova.Options{Algorithm: nova.Portfolio, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := nova.Encode(f, nova.Options{
			Algorithm: nova.IHybrid, Parallelism: 4, Tracer: tracer,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nova.Encode(bench.Get("dk17"), nova.Options{Algorithm: nova.IHybrid, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	glossaryRuns++
	ring, err := nova.ParseKISSString(ringFSM(8 + glossaryRuns))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nova.Encode(ring, nova.Options{Algorithm: nova.IHybrid, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	checkGlossary(t, "## Counter glossary", tracer.Metrics().Counters(), scheduleExempt)
}

// servingFSM is a four-state machine no other test encodes.
const servingFSM = `
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

// TestServingGlossaryMatchesVars is the doc-drift guard for the serving
// counter glossary: after real mixed traffic (miss, hit, failure,
// refusal, drain) every key the doc lists must appear in the server's
// Vars(), and every key Vars() reports must be documented.
func TestServingGlossaryMatchesVars(t *testing.T) {
	// A latency-only injector with rate 1 makes every request tick
	// fault.injected.latency, so the fault.* glossary rows stay honest
	// without perturbing the scripted outcomes below.
	s := serve.New(serve.Config{FaultInjection: &serve.FaultConfig{LatencyRate: 1, Latency: time.Microsecond}})
	body, err := json.Marshal(nova.Request{KISS2: servingFSM, Name: "quick", Algorithm: nova.IGreedy})
	if err != nil {
		t.Fatal(err)
	}
	post := func(b []byte, want int) {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/encode", bytes.NewReader(b)))
		if w.Code != want {
			t.Fatalf("POST /v1/encode: %d, want %d: %s", w.Code, want, w.Body)
		}
	}
	post(body, http.StatusOK)                // miss
	post(body, http.StatusOK)                // hit
	post([]byte("{"), http.StatusBadRequest) // bad body
	// A draining refusal ticks http.rejected.draining and
	// serve.shed.<priority>, so even those rows stay honest.
	s.Drain()
	post(body, http.StatusServiceUnavailable)

	checkGlossary(t, "### Serving counter glossary", s.Vars(), nil)
}
