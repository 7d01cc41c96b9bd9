package nova

// Fuzz targets. FuzzDecodeRequest: arbitrary JSON bodies (the exact bytes
// novad reads off the network) must never panic the decode / validate /
// cache-key path, and every accepted request must produce a stable,
// well-formed cache key. FuzzEncode: arbitrary KISS2 text that parses
// into a small machine must encode to a verified result or fail with a
// typed error, never panic.

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"nova/internal/bench"
)

func FuzzDecodeRequest(f *testing.F) {
	quick := `.i 1\n.o 1\n.s 4\n.r c0\n0 c0 c1 0\n1 c0 c3 1\n0 c1 c2 1\n1 c1 c0 0\n0 c2 c3 1\n1 c2 c1 0\n0 c3 c0 0\n1 c3 c2 1\n.e`
	for _, seed := range []string{
		// The server smoke payload shape.
		`{"kiss2": "` + quick + `", "name": "quick4", "algorithm": "ihybrid"}`,
		// Every option field populated.
		`{"kiss2": "` + quick + `", "algorithm": "iexact", "bits": 3, "seed": 9,
		  "max_work": 1000, "random_trials": 2, "fast_minimize": true,
		  "include_pla": true, "include_telemetry": true, "name": "x"}`,
		// Portfolio rosters: default, custom, truncated, hedged.
		`{"kiss2": "` + quick + `", "algorithm": "portfolio"}`,
		`{"kiss2": "` + quick + `", "portfolio": {"roster": [
		   {"algorithm": "ihybrid"}, {"algorithm": "iohybrid", "seed_split": 2}],
		   "max_candidates": 1, "hedge_delay_ms": 5}}`,
		`{"kiss2": "` + quick + `", "portfolio": {}}`,
		// Near-miss shapes the decoder must reject without panicking.
		`{"kiss2": ""}`,
		`{"kiss2": ".i bogus"}`,
		`{"kiss2": "` + quick + `", "algorithm": "bogus"}`,
		`{"kiss2": "` + quick + `", "portfolio": {"roster": [{"algorithm": "portfolio"}]}}`,
		`{"portfolio": {"roster": null}}`,
		`{`,
		`[]`,
		`{"kiss2": 7}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rq Request
		if err := json.Unmarshal(data, &rq); err != nil {
			return // malformed JSON only needs to not panic
		}
		fsm, err := rq.Validate()
		if err != nil {
			return // rejected requests only need to not panic
		}
		if fsm == nil {
			t.Fatalf("Validate accepted a request without a machine: %s", data)
		}
		// Accepted requests must key the cache: a 64-hex digest, the same
		// on every call (the serving layer relies on key stability for
		// singleflight collapse and cache replay).
		key, err := rq.CacheKey()
		if err != nil {
			t.Fatalf("validated request has no cache key: %v\n%s", err, data)
		}
		if len(key) != 64 {
			t.Fatalf("cache key %q is not a sha256 hex digest", key)
		}
		again, err := rq.CacheKey()
		if err != nil || again != key {
			t.Fatalf("cache key unstable: %q then %q (err %v)", key, again, err)
		}
		// The derived options must pass the same validation the engine
		// runs — wire acceptance may not be looser than Options.Validate.
		if verr := rq.Options().Validate(); verr != nil {
			t.Fatalf("accepted request derives invalid options: %v\n%s", verr, data)
		}
	})
}

// FuzzEncode drives arbitrary KISS2 through igreedy and ihybrid at a small
// search budget. Deterministic machines of up to 8 states and 8 binary
// inputs that parse and validate must either encode to a result that
// passes VerifyContext or fail with an error of the closed kind enum. This
// runs the minimizer (constraint derivation, the final ESPRESSO, verify)
// on layouts the benchmark generators never make: symbolic inputs and
// output fields wider than one cube word.
func FuzzEncode(f *testing.F) {
	quick, err := os.ReadFile("testdata/quick4.kiss2")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(quick))
	for _, name := range []string{"dk15", "dk27", "bbtas", "shiftreg", "ex6"} {
		f.Add(bench.Get(name).String())
	}
	// 70 outputs: the output field spans two cube words.
	wide := ".i 1\n.o 70\n"
	for i, row := range []string{"0 a b", "1 a a", "0 b c", "1 b a", "0 c c", "1 c b"} {
		wide += row + " " + strings.Repeat("01-"[i%3:i%3+1], 35) + strings.Repeat("10"[i%2:i%2+1], 35) + "\n"
	}
	f.Add(wide + ".e\n")

	kinds := ErrorKinds()
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseKISSString(src)
		if err != nil || m.Validate() != nil || m.NumStates() > 8 || m.NI > 8 {
			return
		}
		// A table whose overlapping rows disagree specifies no machine,
		// so no encoding of it can verify.
		if ok, _ := m.Deterministic(); !ok {
			return
		}
		for _, alg := range []Algorithm{IGreedy, IHybrid} {
			res, err := EncodeContext(ctx, m, Options{Algorithm: alg, MaxWork: 2000, Parallelism: 1})
			if err != nil {
				if k := ErrorKindOf(err); !slices.Contains(kinds, k) {
					t.Fatalf("%s: error kind %q outside the enum: %v", alg, k, err)
				}
				continue
			}
			if err := VerifyContext(ctx, m, res.Assignment); err != nil {
				t.Fatalf("%s: result does not verify: %v\n%s", alg, err, src)
			}
		}
	})
}
