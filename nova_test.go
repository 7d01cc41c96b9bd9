package nova

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nova/internal/bench"
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

func parseQuick(t *testing.T) *FSM {
	t.Helper()
	f, err := ParseKISSString(quickFSM)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEncodeAllAlgorithms(t *testing.T) {
	f := parseQuick(t)
	algs := []Algorithm{IExact, IHybrid, IGreedy, IOHybrid, IOVariant, Best, KISS, OneHot, Random,
		MustangP, MustangN, MustangPT, MustangNT}
	for _, alg := range algs {
		res, err := Encode(f, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Cubes <= 0 || res.Area <= 0 {
			t.Fatalf("%s: degenerate result %+v", alg, res)
		}
		if !res.Assignment.States.Distinct() {
			t.Fatalf("%s: duplicate codes", alg)
		}
		if err := Verify(f, res.Assignment); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

// nondetFSM is a 2-state table whose rows 0 and 1 overlap (input 0 in
// state a) with different next states, so it specifies no machine.
const nondetFSM = `
.i 1
.o 1
0 a a 0
- a b 0
0 b a 1
1 b b 0
.e
`

// TestEncodeRejectsNondeterministic: a table whose overlapping rows
// disagree fails with ErrUnencodable under every algorithm and in
// ConstraintsContext, and in a batch only the bad machine fails.
func TestEncodeRejectsNondeterministic(t *testing.T) {
	bad, err := ParseKISSString(nondetFSM)
	if err != nil {
		t.Fatal(err)
	}
	bad.Name = "nondet"
	const why = "rows 0 and 1 overlap with different next states"
	for _, alg := range Algorithms() {
		res, err := EncodeContext(context.Background(), bad, Options{Algorithm: alg})
		if !errors.Is(err, ErrUnencodable) || res != nil {
			t.Fatalf("%s: got (%+v, %v), want ErrUnencodable and no result", alg, res, err)
		}
		if !strings.Contains(err.Error(), why) {
			t.Fatalf("%s: error %q lacks the reason %q", alg, err, why)
		}
		if k := ErrorKindOf(err); k != ErrKindUnencodable {
			t.Fatalf("%s: wire kind %q, want %q", alg, k, ErrKindUnencodable)
		}
	}
	states, symIns, err := ConstraintsContext(context.Background(), bad)
	if !errors.Is(err, ErrUnencodable) || states != nil || symIns != nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("ConstraintsContext: got (%v, %v, %v), want ErrUnencodable and no constraints", states, symIns, err)
	}

	good := parseQuick(t)
	good.Name = "quick4"
	want, err := Encode(good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := EncodeAll(context.Background(), []*FSM{good, bad}, Options{})
	if !errors.Is(err, ErrUnencodable) || !strings.Contains(err.Error(), "nondet: ") {
		t.Fatalf("batch err = %v, want ErrUnencodable naming the bad machine", err)
	}
	if strings.Contains(err.Error(), "quick4") {
		t.Fatalf("batch err %q blames the good machine", err)
	}
	if len(results) != 2 || results[1] != nil {
		t.Fatalf("batch results = %+v, want the bad machine's slot nil", results)
	}
	if !reflect.DeepEqual(results[0], want) {
		t.Fatalf("good machine in batch = %+v, want %+v", results[0], want)
	}
}

// TestEncodeRejectsMalformedTable: a structurally invalid table fails
// with FSM.Validate's error under every algorithm and in a batch, before
// the determinism scan (which indexes rows by NI) can panic on it.
// kiss.Parse rejects such a table, so it is built by hand: its rows are
// narrower than NI.
func TestEncodeRejectsMalformedTable(t *testing.T) {
	bad := NewFSM("malformed", 0, 1)
	bad.MustAddRow("", "a", "b", "1")
	bad.MustAddRow("", "b", "a", "0")
	bad.NI = 2
	want := bad.Validate()
	if want == nil {
		t.Fatal("malformed table passes Validate")
	}
	for _, alg := range Algorithms() {
		res, err := EncodeContext(context.Background(), bad, Options{Algorithm: alg})
		if err == nil || err.Error() != want.Error() || res != nil {
			t.Fatalf("%s: got (%+v, %v), want (nil, %v)", alg, res, err, want)
		}
	}
	good := parseQuick(t)
	results, err := EncodeAll(context.Background(), []*FSM{good, bad}, Options{})
	if err == nil || !strings.Contains(err.Error(), "malformed: "+want.Error()) {
		t.Fatalf("batch err = %v, want the malformed machine's %v", err, want)
	}
	if len(results) != 2 || results[0] == nil || results[1] != nil {
		t.Fatalf("batch results = %+v, want only the good machine's", results)
	}
}

func TestEncodeDefaultsToBest(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Best {
		t.Fatalf("algorithm = %s", res.Algorithm)
	}
}

func TestBestIsNoWorseThanComponents(t *testing.T) {
	f := parseQuick(t)
	best, err := Encode(f, Options{Algorithm: Best})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{IHybrid, IGreedy, IOHybrid} {
		r, err := Encode(f, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if best.Area > r.Area {
			t.Fatalf("best area %d worse than %s's %d", best.Area, alg, r.Area)
		}
	}
}

func TestOneHotShape(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: OneHot})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != 4 {
		t.Fatalf("one-hot bits = %d", res.Bits)
	}
	for i, c := range res.Assignment.States.Codes {
		if c != 1<<uint(i) {
			t.Fatalf("code %d = %b", i, c)
		}
	}
}

func TestRandomReportsAverage(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: Random, RandomTrials: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RandomAvgArea < res.Area {
		t.Fatalf("avg %d below best %d", res.RandomAvgArea, res.Area)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	f := parseQuick(t)
	a, err := Encode(f, Options{Algorithm: Random, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(f, Options{Algorithm: Random, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Area != b.Area || a.RandomAvgArea != b.RandomAvgArea {
		t.Fatal("random baseline is not reproducible for a fixed seed")
	}
}

func TestKeepPLA(t *testing.T) {
	f := parseQuick(t)
	res, err := Encode(f, Options{Algorithm: IHybrid, KeepPLA: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.PLA == nil {
		t.Fatal("no PLA attached")
	}
	if len(res.PLA.Rows) != res.Cubes {
		t.Fatalf("PLA rows %d != cubes %d", len(res.PLA.Rows), res.Cubes)
	}
	if !strings.Contains(res.PLA.String(), ".i 3") {
		t.Fatalf("PLA header wrong:\n%s", res.PLA)
	}
}

func TestConstraintsAPI(t *testing.T) {
	f := parseQuick(t)
	states, symIns, err := Constraints(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(symIns) != 0 {
		t.Fatal("no symbolic inputs expected")
	}
	for _, ic := range states {
		if ic.Set.N() != 4 || ic.Weight < 1 {
			t.Fatalf("bad constraint %+v", ic)
		}
	}
}

func TestEncodeUnknownAlgorithm(t *testing.T) {
	f := parseQuick(t)
	if _, err := Encode(f, Options{Algorithm: "bogus"}); err == nil {
		t.Fatal("want error")
	}
}

func TestBitsAboveMinimumHelpsSatisfaction(t *testing.T) {
	// With more bits, ihybrid's projection phase can only improve (or
	// keep) the satisfied constraint weight.
	f := parseQuick(t)
	minRes, err := Encode(f, Options{Algorithm: IHybrid})
	if err != nil {
		t.Fatal(err)
	}
	bigRes, err := Encode(f, Options{Algorithm: IHybrid, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bigRes.WSat < minRes.WSat {
		t.Fatalf("more bits lost satisfaction: %d < %d", bigRes.WSat, minRes.WSat)
	}
}

// TestBitsBelowMinimumSelectMinimum: a code length below MinLength of
// the state count selects the minimum, so every algorithm returns what it
// returns at Bits = 0.
func TestBitsBelowMinimumSelectMinimum(t *testing.T) {
	for _, name := range []string{"bbara", "dk17", "lion"} {
		f := bench.Get(name)
		for _, alg := range Algorithms() {
			t.Run(name+"/"+string(alg), func(t *testing.T) {
				opt := Options{Algorithm: alg, Parallelism: 1}
				want, err := Encode(f, opt)
				if err != nil {
					t.Fatal(err)
				}
				opt.Bits = MinLength(f.NumStates()) - 1
				got, err := Encode(f, opt)
				if err != nil {
					t.Fatalf("Bits %d: %v", opt.Bits, err)
				}
				if got.Bits != want.Bits || got.Cubes != want.Cubes || got.Area != want.Area {
					t.Fatalf("Bits %d: bits/cubes/area %d/%d/%d, want %d/%d/%d as at Bits 0",
						opt.Bits, got.Bits, got.Cubes, got.Area, want.Bits, want.Cubes, want.Area)
				}
			})
		}
	}
}

func TestMinLength(t *testing.T) {
	if MinLength(4) != 2 || MinLength(5) != 3 {
		t.Fatal("MinLength wrong")
	}
}

func TestSymbolicInputEndToEnd(t *testing.T) {
	f := NewFSM("sym", 1, 1)
	f.AddSymbolicInput("op", "add", "sub", "nop", "jmp")
	f.MustAddRow("-", "fetch", "exec", "0", "add")
	f.MustAddRow("-", "fetch", "exec", "0", "sub")
	f.MustAddRow("-", "fetch", "fetch", "0", "nop")
	f.MustAddRow("-", "fetch", "jump", "0", "jmp")
	f.MustAddRow("0", "exec", "fetch", "1", "-")
	f.MustAddRow("1", "exec", "exec", "0", "-")
	f.MustAddRow("-", "jump", "fetch", "1", "-")
	for _, alg := range []Algorithm{IHybrid, IOHybrid, OneHot, Random, KISS} {
		res, err := Encode(f, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Assignment.SymIns) != 1 {
			t.Fatalf("%s: symbolic input not encoded", alg)
		}
		if err := Verify(f, res.Assignment); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}
