package nova

// Racing: Best and Portfolio race a roster of algorithms over the run's
// pool and keep the cheapest cover. Best's roster is the paper's "best
// of NOVA"; Portfolio's comes from Options.Portfolio. Both run the one
// race below, over the run's prepared machine and sched.Cheapest. This
// file also owns the public portfolio configuration and its validation.

import (
	"context"
	"errors"

	"nova/internal/obs"
	"nova/internal/sched"
)

// PortfolioConfig configures Algorithm Portfolio. The zero value (and a
// nil Options.Portfolio) selects the default roster.
type PortfolioConfig struct {
	// Roster lists the algorithms in pick-priority order: the winner is
	// the lowest final cover cost (PLA area), ties broken by the lowest
	// roster index. Empty selects DefaultRoster.
	Roster []Algorithm
}

// DefaultRoster is the roster a portfolio run races when none is given:
// the three main NOVA searchers plus the fast greedy heuristic.
func DefaultRoster() []Algorithm {
	return []Algorithm{IHybrid, IOHybrid, IExact, IGreedy}
}

// roster is the roster the race runs: DefaultRoster when none was
// given. The wire cache key hashes exactly this roster, so requests that
// race the same algorithms share cache entries however they spelled the
// config.
func (pc *PortfolioConfig) roster() []Algorithm {
	if pc == nil || len(pc.Roster) == 0 {
		return DefaultRoster()
	}
	return pc.Roster
}

// validate is the Options.Validate leg for the portfolio fields.
func (pc *PortfolioConfig) validate(bad func(format string, args ...any) error) error {
	if pc == nil {
		return nil
	}
	if len(pc.Roster) > maxJoinWidth {
		return bad("portfolio roster of %d exceeds %d candidates", len(pc.Roster), maxJoinWidth)
	}
	for i, a := range pc.Roster {
		if a == Portfolio {
			return bad("portfolio roster[%d] cannot nest the portfolio algorithm", i)
		}
		if a == "" || !algorithms[a] {
			return bad("portfolio roster[%d] has unknown algorithm %q", i, a)
		}
	}
	return nil
}

// bestRoster is "best of NOVA" in pick order.
var bestRoster = []Algorithm{IHybrid, IGreedy, IOHybrid}

// encodeBest races bestRoster and returns the winner as a Best result.
func encodeBest(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	res, _, err := race(ctx, pool, bestRoster, func(ctx context.Context, alg Algorithm) (*Result, error) {
		o := opt
		o.Algorithm = alg
		return encodeWith(ctx, pool, p, o)
	})
	if err != nil {
		return nil, err
	}
	res.Algorithm = Best
	return res, nil
}

// encodePortfolio races the configured roster, each candidate under a
// portfolio.candidate span, and names the winner in Result.Winner.
func encodePortfolio(ctx context.Context, pool *sched.Pool, p *prepared, opt Options) (*Result, error) {
	roster := opt.Portfolio.roster()
	m := obs.MetricsFrom(ctx)
	res, win, err := race(ctx, pool, roster, func(ctx context.Context, alg Algorithm) (*Result, error) {
		o := opt
		o.Algorithm = alg
		o.Portfolio = nil
		m.Add("portfolio.launched", 1)
		sctx, sp := obs.Span(ctx, "portfolio.candidate")
		r, err := encodeWith(sctx, pool, p, o)
		if sp != nil {
			sp.SetStr("candidate", string(alg))
			sp.SetStr("outcome", outcomeOf(err))
			if r != nil {
				sp.SetInt("area", int64(r.Area))
			}
			sp.End()
		}
		return r, err
	})
	if err != nil {
		return nil, err
	}
	res.Algorithm = Portfolio
	res.Winner = roster[win]
	m.Add("portfolio.won", 1)
	m.Add("portfolio.winner."+string(roster[win]), 1)
	return res, nil
}

// race runs every roster algorithm through run over the pool and returns
// the winner with its roster index: the lowest area, ties to the lowest
// index. A failed candidate only loses. Once ctx is done, a race with a
// failed or unlaunched candidate fails with ErrCanceled, since the
// missing candidate might have won; a race with no success reports its
// lowest-index failure. Launch order (launchOrder) never affects the
// pick or the error.
func race(ctx context.Context, pool *sched.Pool, roster []Algorithm, run func(ctx context.Context, alg Algorithm) (*Result, error)) (*Result, int, error) {
	launch := launchOrder(roster)
	launched, _ := sched.Cheapest(ctx, pool, len(roster), func(ctx context.Context, i int) (*Result, int64, error) {
		return costed(run(ctx, roster[launch[i]]))
	})
	out := make([]sched.Outcome[*Result], len(roster))
	for i, o := range launched {
		out[launch[i]] = o
	}
	win := -1
	for i, o := range out {
		if o.Err == nil && (win < 0 || o.Cost < out[win].Cost) {
			win = i
		}
	}
	if err := firstErr(ctx, out); err != nil && (win < 0 || errors.Is(err, ErrCanceled)) {
		return nil, -1, err
	}
	return out[win].Value, win, nil
}

// launchOrder lists the roster's indices in launch order: iohybrid and
// iovariant first, then the rest, each group in roster order. The two
// run the §6.1 symbolic analysis before their search, so they end a race
// last; launched first, they take a spare worker while the others run
// on the submitting goroutine. For bestRoster the order is 2, 0, 1.
func launchOrder(roster []Algorithm) []int {
	order := make([]int, 0, len(roster))
	for _, analysisFirst := range []bool{true, false} {
		for i, a := range roster {
			if (a == IOHybrid || a == IOVariant) == analysisFirst {
				order = append(order, i)
			}
		}
	}
	return order
}
