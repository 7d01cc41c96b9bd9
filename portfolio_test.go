package nova_test

// Tests of the portfolio encoder: the acceptance determinism guarantee
// (serial and parallel races return byte-identical winning covers), the
// quality bar (the portfolio matches or beats every single roster
// algorithm), and the config surface.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nova"
	"nova/internal/bench"
)

// fullRoster is the default roster spelled explicitly, for tests that
// compare against its members one at a time.
func fullRoster() []nova.PortfolioCandidate { return nova.DefaultRoster() }

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
		for _, c := range fullRoster() {
			o := opt
			o.Algorithm = c.Algorithm
			o.Portfolio = nil
			if c.SeedSplit != 0 {
				// Seed-split restarts are portfolio-internal; comparing the
				// base algorithms is the meaningful quality bar.
				continue
			}
			single, err := nova.Encode(f, o)
			if err != nil {
				continue // a gave-up candidate only loses the race
			}
			if best.Area > single.Area {
				t.Errorf("%s: portfolio area %d worse than %s area %d", name, best.Area, c.Algorithm, single.Area)
			}
			if c.Algorithm == best.Winner && best.WinnerSeedSplit == 0 {
				sawWinner = true
				if best.Area != single.Area {
					t.Errorf("%s: winner %s reported area %d but standalone run gives %d", name, best.Winner, best.Area, single.Area)
				}
			}
		}
		if !sawWinner && best.WinnerSeedSplit == 0 {
			t.Errorf("%s: winner %q not among the compared roster algorithms", name, best.Winner)
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

// TestPortfolioMaxCandidates: truncating the roster via MaxCandidates is
// the same race as spelling out the truncated roster.
func TestPortfolioMaxCandidates(t *testing.T) {
	f := bench.Get("dk27")
	base := nova.Options{Algorithm: nova.Portfolio, Seed: 7}
	capped := base
	capped.Portfolio = &nova.PortfolioConfig{Roster: fullRoster(), MaxCandidates: 2}
	explicit := base
	explicit.Portfolio = &nova.PortfolioConfig{Roster: fullRoster()[:2]}
	a, err := nova.Encode(f, capped)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nova.Encode(f, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("MaxCandidates race differs from the explicit truncated roster")
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
	opt.Portfolio = &nova.PortfolioConfig{Roster: []nova.PortfolioCandidate{{Algorithm: nova.IGreedy}}}
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

// TestPortfolioSeedSplitDiversity: a seed-split restart really runs the
// searcher under a different derived seed (validated indirectly — the
// restart is accepted and the race stays deterministic).
func TestPortfolioSeedSplitRoster(t *testing.T) {
	f := bench.Get("shiftreg")
	opt := nova.Options{Algorithm: nova.Portfolio, Seed: 7, Parallelism: 2}
	opt.Portfolio = &nova.PortfolioConfig{Roster: []nova.PortfolioCandidate{
		{Algorithm: nova.Random},
		{Algorithm: nova.Random, SeedSplit: 1},
		{Algorithm: nova.Random, SeedSplit: 2},
	}}
	a, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed-split race is nondeterministic")
	}
	if err := nova.Verify(f, a.Assignment); err != nil {
		t.Fatal(err)
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
			Roster: []nova.PortfolioCandidate{{Algorithm: nova.Portfolio}},
		}}, "nest"},
		{"unknown algorithm", nova.Options{Portfolio: &nova.PortfolioConfig{
			Roster: []nova.PortfolioCandidate{{Algorithm: "simulated-annealing"}},
		}}, "unknown algorithm"},
		{"negative seed split", nova.Options{Portfolio: &nova.PortfolioConfig{
			Roster: []nova.PortfolioCandidate{{Algorithm: nova.IHybrid, SeedSplit: -1}},
		}}, "SeedSplit"},
		{"negative max", nova.Options{Portfolio: &nova.PortfolioConfig{MaxCandidates: -2}}, "MaxCandidates"},
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
