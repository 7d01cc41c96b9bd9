package nova_test

// Tests of the portfolio encoder: the acceptance determinism guarantee
// (serial and parallel races return byte-identical winning covers), the
// quality bar (the portfolio matches or beats every single roster
// algorithm), and the config surface.

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

// TestPortfolioSerialParallelIdentical is the acceptance check: over the
// determinism suite, a portfolio race at Parallelism 1 and at
// Parallelism 4 returns byte-identical Results — same winning cover, same winner metadata —
// because the pick is lowest cost with ties to roster order, never
// completion order.
func TestPortfolioSerialParallelIdentical(t *testing.T) {
	for _, name := range parallelSuite {
		t.Run(name, func(t *testing.T) {
			f := bench.Get(name)
			opt := nova.Options{Algorithm: nova.Portfolio, Seed: 7, MaxWork: 200_000, KeepPLA: true}
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
				t.Fatalf("parallel portfolio differs from serial:\nserial:   %+v\nparallel: %+v", serial, par)
			}
			if serial.Algorithm != nova.Portfolio {
				t.Fatalf("Result.Algorithm = %q, want %q", serial.Algorithm, nova.Portfolio)
			}
			if serial.Winner == "" || serial.Winner == nova.Portfolio {
				t.Fatalf("Result.Winner = %q, want a concrete roster algorithm", serial.Winner)
			}
			if err := nova.Verify(f, serial.Assignment); err != nil {
				t.Fatalf("winning cover does not implement the machine: %v", err)
			}
		})
	}
}

// TestPortfolioMatchesOrBeatsSingles is the quality half of the
// acceptance bar: on the determinism suite the portfolio's area is no
// worse than any single roster member run with the same options.
func TestPortfolioMatchesOrBeatsSingles(t *testing.T) {
	for _, name := range parallelSuite {
		f := bench.Get(name)
		opt := nova.Options{Algorithm: nova.Portfolio, Seed: 7, MaxWork: 200_000}
		best, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatalf("%s: portfolio: %v", name, err)
		}
		sawWinner := false
		for _, alg := range nova.DefaultRoster() {
			o := opt
			o.Algorithm = alg
			single, err := nova.Encode(f, o)
			if err != nil {
				continue // a gave-up candidate only loses the race
			}
			if best.Area > single.Area {
				t.Errorf("%s: portfolio area %d worse than %s area %d", name, best.Area, alg, single.Area)
			}
			if alg == best.Winner {
				sawWinner = true
				if best.Area != single.Area {
					t.Errorf("%s: winner %s reported area %d but standalone run gives %d", name, best.Winner, best.Area, single.Area)
				}
			}
		}
		if !sawWinner {
			t.Errorf("%s: winner %q not among the roster algorithms", name, best.Winner)
		}
	}
}

// TestPortfolioRepeatedRunsIdentical: the race is a pure function of
// (machine, options) — repeated runs return byte-identical Results even
// with parallel workers shuffling completion order.
func TestPortfolioRepeatedRunsIdentical(t *testing.T) {
	f := bench.Get("train11")
	opt := nova.Options{
		Algorithm:   nova.Portfolio,
		Seed:        11,
		MaxWork:     200_000,
		KeepPLA:     true,
		Parallelism: 4,
		Portfolio:   &nova.PortfolioConfig{},
	}
	first, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

// TestPortfolioDefaultAlgorithm: setting Options.Portfolio alone selects
// the portfolio algorithm without naming it.
func TestPortfolioDefaultAlgorithm(t *testing.T) {
	f := bench.Get("lion")
	res, err := nova.Encode(f, nova.Options{Seed: 7, Portfolio: &nova.PortfolioConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != nova.Portfolio {
		t.Fatalf("Result.Algorithm = %q, want %q", res.Algorithm, nova.Portfolio)
	}
}

// TestPortfolioSingleCandidateRoster: a one-entry roster degenerates to
// that algorithm's cover with portfolio metadata attached.
func TestPortfolioSingleCandidateRoster(t *testing.T) {
	f := bench.Get("bbtas")
	opt := nova.Options{Seed: 7, KeepPLA: true}
	opt.Algorithm = nova.IGreedy
	single, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Algorithm = nova.Portfolio
	opt.Portfolio = &nova.PortfolioConfig{Roster: []nova.Algorithm{nova.IGreedy}}
	pf, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Winner != nova.IGreedy || pf.Algorithm != nova.Portfolio {
		t.Fatalf("winner %q algorithm %q", pf.Winner, pf.Algorithm)
	}
	if pf.Area != single.Area || !reflect.DeepEqual(pf.Assignment, single.Assignment) {
		t.Fatalf("one-candidate portfolio differs from the bare algorithm")
	}
}

// TestPortfolioValidate sweeps the config rejections.
func TestPortfolioValidate(t *testing.T) {
	f := bench.Get("lion")
	cases := []struct {
		name string
		opt  nova.Options
		want string
	}{
		{"nested portfolio", nova.Options{Portfolio: &nova.PortfolioConfig{
			Roster: []nova.Algorithm{nova.Portfolio},
		}}, "nest"},
		{"unknown algorithm", nova.Options{Portfolio: &nova.PortfolioConfig{
			Roster: []nova.Algorithm{"simulated-annealing"},
		}}, "unknown algorithm"},
		{"conflicting algorithm", nova.Options{Algorithm: nova.IHybrid, Portfolio: &nova.PortfolioConfig{}}, "Portfolio config"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := nova.Encode(f, c.opt)
			if !errors.Is(err, nova.ErrBadOptions) {
				t.Fatalf("err = %v, want ErrBadOptions", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPortfolioPreCanceled: a dead context fails the race before any
// candidate can finish, so the run reports cancellation.
func TestPortfolioPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := nova.EncodeContext(ctx, bench.Get("bbtas"), nova.Options{Algorithm: nova.Portfolio})
	if !errors.Is(err, nova.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestPortfolioDeadlineFailsRace: a deadline that fires mid-race fails
// the race with ErrCanceled, even though one candidate already finished:
// the candidate cut short might have won, so the finished one is not
// the race's answer, and a server must not cache it as one. igreedy
// finishes in milliseconds on this 32-state machine; iexact with this
// budget runs far past the deadline.
func TestPortfolioDeadlineFailsRace(t *testing.T) {
	f := randomFSM(rand.New(rand.NewSource(99)), 2, 2, 32)
	deadline := 200 * time.Millisecond
	if raceEnabled {
		deadline = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	res, err := nova.EncodeContext(ctx, f, nova.Options{
		Algorithm:   nova.Portfolio,
		MaxWork:     1 << 30,
		Parallelism: 1,
		Portfolio:   &nova.PortfolioConfig{Roster: []nova.Algorithm{nova.IGreedy, nova.IExact}},
	})
	if !errors.Is(err, nova.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("canceled race returned a winner: %s, area %d", res.Winner, res.Area)
	}
}
