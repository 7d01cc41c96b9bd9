package nova_test

// Tests of the concurrent encoding engine: determinism of the parallel
// fan-outs against serial runs, context cancellation, and the batch API.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nova"
	"nova/internal/bench"
)

// parallelSuite is the cross-section of suite machines the determinism
// tests sweep: small enough to run in seconds, varied enough to exercise
// symbolic inputs, multiple constraint shapes and both fan-out joins.
var parallelSuite = []string{"bbtas", "dk27", "lion", "shiftreg", "train11", "beecount"}

// TestSerialParallelIdentical checks the tentpole determinism guarantee:
// for a fixed Seed, the parallel Best and Random fan-outs return Results
// byte-identical to a serial run.
func TestSerialParallelIdentical(t *testing.T) {
	for _, name := range parallelSuite {
		for _, alg := range []nova.Algorithm{nova.Best, nova.Random} {
			t.Run(name+"/"+string(alg), func(t *testing.T) {
				f := bench.Get(name)
				opt := nova.Options{Algorithm: alg, Seed: 7}
				opt.Parallelism = 1
				serial, err := nova.Encode(f, opt)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				opt.Parallelism = 4
				par, err := nova.Encode(f, opt)
				if err != nil {
					t.Fatalf("parallel: %v", err)
				}
				if !reflect.DeepEqual(serial, par) {
					t.Fatalf("parallel result differs from serial:\nserial:   %+v\nparallel: %+v", serial, par)
				}
			})
		}
	}
}

// TestSerialParallelIdenticalAcrossSeeds widens the Random check: the
// per-trial seed split must make every trial independent of scheduling.
func TestSerialParallelIdenticalAcrossSeeds(t *testing.T) {
	f := bench.Get("dk15")
	for seed := int64(1); seed <= 3; seed++ {
		opt := nova.Options{Algorithm: nova.Random, Seed: seed, RandomTrials: 13, Parallelism: 1}
		serial, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		opt.Parallelism = 3
		par, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("seed %d: parallel Random differs from serial", seed)
		}
	}
}

// TestEncodeContextCancellation cancels a hopeless iexact search on a
// large random machine and requires EncodeContext to return promptly
// with an error matching both ErrCanceled and the context sentinel.
func TestEncodeContextCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := randomFSM(rng, 2, 2, 32)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := nova.EncodeContext(ctx, f, nova.Options{Algorithm: nova.IExact, MaxWork: 1 << 30})
	elapsed := time.Since(start)
	if !errors.Is(err, nova.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded joined in", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("EncodeContext took %v after a 50ms deadline", elapsed)
	}
}

// TestRandomHonorsDeadline: a Random batch as wide as a join may be
// stops launching trials once its deadline passes, so even a serial run
// reports ErrCanceled promptly instead of finishing the batch.
func TestRandomHonorsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := nova.EncodeContext(ctx, bench.Get("bbtas"), nova.Options{
		Algorithm: nova.Random, RandomTrials: 1 << 16, Parallelism: 1,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, nova.ErrCanceled) || errors.Is(err, nova.ErrUnencodable) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("EncodeContext took %v after a 50ms deadline", elapsed)
	}
}

// TestEncodeContextPreCanceled returns immediately on an already-dead
// context, before any minimization work.
func TestEncodeContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := nova.EncodeContext(ctx, bench.Get("bbtas"), nova.Options{})
	if !errors.Is(err, nova.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestEncodeAllMatchesIndividual checks that the batch API returns the
// same Results as encoding the machines one at a time.
func TestEncodeAllMatchesIndividual(t *testing.T) {
	var fsms []*nova.FSM
	for _, name := range parallelSuite {
		fsms = append(fsms, bench.Get(name))
	}
	opt := nova.Options{Algorithm: nova.IHybrid, Seed: 3}
	batch, err := nova.EncodeAll(context.Background(), fsms, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(fsms) {
		t.Fatalf("EncodeAll returned %d results for %d machines", len(batch), len(fsms))
	}
	for i, f := range fsms {
		one, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(one, batch[i]) {
			t.Fatalf("%s: batch result differs from individual encode", f.Name)
		}
	}
}

// TestEncodeAllRejectsNil checks the batch input validation.
func TestEncodeAllRejectsNil(t *testing.T) {
	_, err := nova.EncodeAll(context.Background(), []*nova.FSM{bench.Get("lion"), nil}, nova.Options{})
	if err == nil {
		t.Fatal("EncodeAll accepted a nil machine")
	}
}

// TestEncodeAllPartialResults pins the batch partial-results contract: a
// per-machine failure lands in the joined error and leaves its slot nil,
// while every sibling's result still comes back.
func TestEncodeAllPartialResults(t *testing.T) {
	// One-hot on a 70-state machine needs 70 state bits — more than a
	// 64-bit code word holds — so that machine alone is unencodable.
	rng := rand.New(rand.NewSource(4))
	big := randomFSM(rng, 1, 1, 70)
	big.Name = "toobig"
	fsms := []*nova.FSM{bench.Get("lion"), big, bench.Get("bbtas")}
	results, err := nova.EncodeAll(context.Background(), fsms, nova.Options{Algorithm: nova.OneHot})
	if !errors.Is(err, nova.ErrUnencodable) {
		t.Fatalf("err = %v, want ErrUnencodable joined in", err)
	}
	if err == nil || !strings.Contains(err.Error(), "toobig") {
		t.Fatalf("err %q does not name the failed machine", err)
	}
	if len(results) != len(fsms) {
		t.Fatalf("EncodeAll returned %d slots for %d machines", len(results), len(fsms))
	}
	if results[1] != nil {
		t.Fatalf("failed machine's slot is %+v, want nil", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Fatalf("%s: sibling result lost to the partial failure", fsms[i].Name)
		}
		if verr := nova.Verify(fsms[i], results[i].Assignment); verr != nil {
			t.Fatalf("%s: %v", fsms[i].Name, verr)
		}
	}
}

// TestEncodeAllErrorOrderIsInputOrder pins the shape of the joined batch
// error: per-machine failures appear in input order, not completion
// order. Workers finish in whatever order scheduling allows, so the join
// must come from the indexed error slots; a batch with several failures
// across repeated parallel runs would expose any ordering drift.
func TestEncodeAllErrorOrderIsInputOrder(t *testing.T) {
	// One-hot on a >64-state machine is unencodable (the code word is a
	// uint64), so every "big" machine fails deterministically.
	rng := rand.New(rand.NewSource(8))
	big := func(name string) *nova.FSM {
		f := randomFSM(rng, 1, 1, 70)
		f.Name = name
		return f
	}
	fsms := []*nova.FSM{
		big("fails-a"), bench.Get("lion"), big("fails-b"), bench.Get("bbtas"), big("fails-c"),
	}
	wantOrder := []string{"fails-a", "fails-b", "fails-c"}
	for trial := 0; trial < 5; trial++ {
		_, err := nova.EncodeAll(context.Background(), fsms, nova.Options{Algorithm: nova.OneHot, Parallelism: 4})
		if !errors.Is(err, nova.ErrUnencodable) {
			t.Fatalf("trial %d: err = %v, want ErrUnencodable joined in", trial, err)
		}
		joined, ok := err.(interface{ Unwrap() []error })
		if !ok {
			t.Fatalf("trial %d: batch error is not a join: %T", trial, err)
		}
		branches := joined.Unwrap()
		if len(branches) != len(wantOrder) {
			t.Fatalf("trial %d: %d error branches, want %d: %v", trial, len(branches), len(wantOrder), err)
		}
		for i, b := range branches {
			if !strings.HasPrefix(b.Error(), wantOrder[i]+":") {
				t.Fatalf("trial %d: branch %d is %q, want machine %q (input order)", trial, i, b, wantOrder[i])
			}
		}
	}
}

// TestEncodeAllCanceled checks that batch cancellation aborts with the
// machine name wrapped around the canceled error.
func TestEncodeAllCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := nova.EncodeAll(ctx, []*nova.FSM{bench.Get("lion")}, nova.Options{})
	if !errors.Is(err, nova.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestVerifyContextCanceled checks the context variant of Verify.
func TestVerifyContextCanceled(t *testing.T) {
	f := bench.Get("lion")
	res, err := nova.Encode(f, nova.Options{Algorithm: nova.IGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if err := nova.VerifyContext(context.Background(), f, res.Assignment); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := nova.VerifyContext(ctx, f, res.Assignment); !errors.Is(err, nova.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
