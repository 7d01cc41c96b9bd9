package nova

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	roster := func(n int) *PortfolioConfig {
		pc := &PortfolioConfig{Roster: make([]Algorithm, n)}
		for i := range pc.Roster {
			pc.Roster[i] = IGreedy
		}
		return pc
	}
	good := []Options{
		{},
		{Algorithm: IExact, Bits: 64, MaxWork: 10, RandomTrials: 3},
		{Parallelism: 8},
		{Algorithm: Random, RandomTrials: maxJoinWidth},
		{Portfolio: roster(maxJoinWidth)},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	bad := []Options{
		{Algorithm: "bogus"},
		{Bits: -1},
		{Bits: 65},
		{MaxWork: -1},
		{RandomTrials: -1},
		{Parallelism: -1},
		{Algorithm: Random, RandomTrials: maxJoinWidth + 1},
		{Portfolio: roster(maxJoinWidth + 1)},
	}
	for _, o := range bad {
		err := o.Validate()
		if !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOptions", o, err)
		}
		if k := ErrorKindOf(err); k != ErrKindBadRequest {
			t.Fatalf("Validate(%+v): wire kind %q, want %q", o, k, ErrKindBadRequest)
		}
	}
}

func TestValidateCalledByEntryPoints(t *testing.T) {
	f := parseQuick(t)
	if _, err := Encode(f, Options{Bits: -1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Encode: %v, want ErrBadOptions", err)
	}
	if _, err := EncodeAll(t.Context(), []*FSM{f}, Options{Algorithm: "nope"}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("EncodeAll: %v, want ErrBadOptions", err)
	}
}

func TestAlgorithmsCoversValidationSet(t *testing.T) {
	listed := Algorithms()
	if len(listed) != len(algorithms) {
		t.Fatalf("Algorithms() has %d entries, validation set %d", len(listed), len(algorithms))
	}
	for _, alg := range listed {
		if !algorithms[alg] {
			t.Fatalf("%q listed but not accepted", alg)
		}
		if err := (Options{Algorithm: alg}).Validate(); err != nil {
			t.Fatalf("%q rejected: %v", alg, err)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	rq := Request{KISS2: quickFSM, Name: "renamed"}
	f, err := rq.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "renamed" {
		t.Fatalf("Name override lost: %q", f.Name)
	}
	for _, bad := range []Request{
		{},                                    // empty source
		{KISS2: ".i bogus"},                   // malformed source
		{KISS2: quickFSM, Algorithm: "bogus"}, // bad option
		{KISS2: quickFSM, Bits: -2},           // bad option
	} {
		if _, err := bad.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Validate(%+v) = %v, want ErrBadOptions", bad, err)
		}
	}
}

func TestCacheKeyCanonicalizesSource(t *testing.T) {
	rq := Request{KISS2: quickFSM}
	key, err := rq.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", key)
	}

	// Formatting quirks of the source must not split the cache: extra
	// blank lines and comments parse to the same machine.
	noisy := Request{KISS2: "# a comment\n\n" + quickFSM + "\n\n"}
	noisyKey, err := noisy.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if noisyKey != key {
		t.Fatal("cosmetic source changes changed the cache key")
	}

	// "" and Best are the same algorithm and must share a key.
	bestKey, err := (&Request{KISS2: quickFSM, Algorithm: Best}).CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if bestKey != key {
		t.Fatal("empty algorithm and Best produced different keys")
	}

	// Every result-determining field must change the key.
	variants := []Request{
		{KISS2: quickFSM, Algorithm: IGreedy},
		{KISS2: quickFSM, Bits: 3},
		{KISS2: quickFSM, MaxWork: 99},
		{KISS2: quickFSM, Seed: 2},
		{KISS2: quickFSM, RandomTrials: 4},
		{KISS2: quickFSM, FastMinimize: true},
		{KISS2: quickFSM, IncludePLA: true},
		{KISS2: quickFSM, IncludeTelemetry: true},
		{KISS2: quickFSM, Name: "other"},
	}
	seen := map[string]int{key: -1}
	for i, v := range variants {
		k, err := v.CacheKey()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("variants %d and %d collide", prev, i)
		}
		seen[k] = i
	}
}

// TestCacheKeyValues pins the digests of requests whose algorithm the
// key resolves: an empty algorithm means Best, or Portfolio when a
// portfolio config is set. A changed digest orphans every cached
// response, so a change here must come with a cacheKeyVersion bump.
func TestCacheKeyValues(t *testing.T) {
	for _, c := range []struct {
		rq   Request
		want string
	}{
		{Request{KISS2: quickFSM}, "a6bc0dee30efc0b29617c7c3571ed6e7a97d94ed1032b523752791eadc05bdfd"},
		{Request{KISS2: quickFSM, Portfolio: &WirePortfolio{Roster: []WireCandidate{{Algorithm: IHybrid}, {Algorithm: IOHybrid}}}}, "669f175a504f33ad6ebdc00613f986bed962ec7a65117a1053c1018dab4cc1ee"},
		{Request{KISS2: quickFSM, Algorithm: IHybrid}, "54c4278d0f3b6bf5f4bc5a5aa94849aed5c7295d4896b5a38f7d4a23ce10e2bf"},
	} {
		got, err := c.rq.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CacheKey(algorithm %q, portfolio %v) = %s, want %s", c.rq.Algorithm, c.rq.Portfolio != nil, got, c.want)
		}
	}
}

func TestWireEncodingRoundTrip(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: IHybrid})
	if err != nil {
		t.Fatal(err)
	}
	rp := ResponseOf(f, res)
	if rp.Machine != f.Name || rp.Area != res.Area || rp.Cubes != res.Cubes {
		t.Fatalf("cost columns lost: %+v", rp)
	}
	if rp.States == nil || len(rp.States.Codes) != 4 {
		t.Fatalf("state table wrong: %+v", rp.States)
	}

	// Through JSON and back, the assignment must still verify.
	data, err := json.Marshal(rp)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	asg, err := back.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if asg.States.Bits != res.Assignment.States.Bits {
		t.Fatalf("bits %d != %d", asg.States.Bits, res.Assignment.States.Bits)
	}
	for i, c := range asg.States.Codes {
		if c != res.Assignment.States.Codes[i] {
			t.Fatalf("code %d: %b != %b", i, c, res.Assignment.States.Codes[i])
		}
	}
	if err := Verify(f, asg); err != nil {
		t.Fatalf("round-tripped assignment fails verify: %v", err)
	}
}

func TestWireEncodingDecodeRejectsBadCodes(t *testing.T) {
	for _, we := range []WireEncoding{
		{Var: "states", Bits: 2, Codes: []string{"001"}}, // wrong width
		{Var: "states", Bits: 2, Codes: []string{"0x"}},  // bad character
	} {
		if _, err := we.Decode(); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("Decode(%+v) = %v, want ErrBadOptions", we, err)
		}
	}
}

func TestResponseJSONTagsAreStable(t *testing.T) {
	// The wire schema is a compatibility contract: these exact key names
	// must appear in a fully-populated serialized Response. Renaming one
	// is a breaking change; this test is the tripwire.
	f := parseQuick(t)
	f.Name = "quick"
	res, err := Encode(f, Options{Algorithm: Random, KeepPLA: true, RandomTrials: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.Telemetry = &TelemetrySnapshot{Spans: 1}
	rp := ResponseOf(f, res)
	// Random leaves the constraint columns zero; fill them so omitempty
	// cannot hide a renamed tag from the scan below.
	rp.WSat, rp.WUnsat, rp.SatisfiedOC, rp.TotalOC = 1, 1, 1, 1
	data, err := json.Marshal(rp)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"machine"`, `"algorithm"`, `"bits"`, `"cubes"`, `"area"`,
		`"w_sat"`, `"oc_satisfied"`, `"oc_total"`, `"random_avg_area"`,
		`"states"`, `"codes"`, `"pla"`, `"telemetry"`, `"wall_us"`, `"spans"`,
	} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("serialized Response lost %s:\n%s", key, data)
		}
	}
}

func TestErrorKindOf(t *testing.T) {
	cases := map[string]error{
		"":                 nil,
		ErrKindBadRequest:  ErrBadOptions,
		ErrKindGaveUp:      ErrGaveUp,
		ErrKindUnencodable: ErrUnencodable,
		ErrKindCanceled:    ErrCanceled,
		ErrKindInternal:    errors.New("boom"),
	}
	for want, err := range cases {
		if got := ErrorKindOf(err); got != want {
			t.Fatalf("ErrorKindOf(%v) = %q, want %q", err, got, want)
		}
	}
	rp := ErrorResponse("m", IExact, ErrGaveUp)
	if rp.Error == "" || rp.ErrorKind != ErrKindGaveUp || rp.Machine != "m" {
		t.Fatalf("ErrorResponse wrong: %+v", rp)
	}
}

func TestVerifyRequestRoundTrip(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: IGreedy})
	if err != nil {
		t.Fatal(err)
	}
	rp := ResponseOf(f, res)
	vq := VerifyRequest{KISS2: quickFSM, States: rp.States, SymIns: rp.SymIns, SymOuts: rp.SymOuts}
	vf, err := vq.Machine()
	if err != nil {
		t.Fatal(err)
	}
	asg, err := vq.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vf, asg); err != nil {
		t.Fatalf("served assignment fails verify: %v", err)
	}
}
