package nova

// Portfolio mode: instead of picking one algorithm up front, race a
// roster of algorithm×seed candidates over the run's pool and keep the
// cheapest cover. The candidates share the run's prepared machine and
// join through sched.Cheapest, like Best's; this file owns the public
// configuration surface, the roster normalization shared with the wire
// layer, and the translation of roster members into join tasks.

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"nova/internal/obs"
	"nova/internal/sched"
)

// PortfolioCandidate is one roster member of a portfolio run: an
// algorithm plus an optional seed split for restart diversity.
type PortfolioCandidate struct {
	// Algorithm is any non-portfolio member of Algorithms().
	Algorithm Algorithm
	// SeedSplit, when nonzero, derives this candidate's seed as
	// sched.SplitSeed(Options.Seed, SeedSplit), so several restarts of
	// one randomized searcher explore different tie-breaks while the
	// whole run stays a pure function of Options.Seed. Zero keeps
	// Options.Seed unchanged.
	SeedSplit int
}

// label renders the candidate for telemetry and cache keys: the
// algorithm name, "@split" appended for seed-split restarts.
func (c PortfolioCandidate) label() string {
	if c.SeedSplit == 0 {
		return string(c.Algorithm)
	}
	return string(c.Algorithm) + "@" + strconv.Itoa(c.SeedSplit)
}

// PortfolioConfig configures Algorithm Portfolio. The zero value (and a
// nil Options.Portfolio) selects the default roster.
type PortfolioConfig struct {
	// Roster lists the candidates in pick-priority order: the winner is
	// the lowest final cover cost (PLA area), ties broken by the lowest
	// roster index. Empty selects DefaultRoster.
	Roster []PortfolioCandidate
	// MaxCandidates truncates the roster (0 = race everyone). It is part
	// of the result-determining inputs: a truncated roster is a
	// different race.
	MaxCandidates int
}

// DefaultRoster is the roster a portfolio run races when none is given:
// the three main NOVA searchers plus the fast greedy heuristic. It holds
// no seed-split restarts: Seed reaches ihybrid and iohybrid only through
// the random fallback of a chain that accepts no constraint, so a
// restart almost always returns its base candidate's assignment.
func DefaultRoster() []PortfolioCandidate {
	return []PortfolioCandidate{
		{Algorithm: IHybrid},
		{Algorithm: IOHybrid},
		{Algorithm: IExact},
		{Algorithm: IGreedy},
	}
}

// normalized resolves the config the race actually runs: the default
// roster when none was given, truncated to MaxCandidates. The wire cache
// key hashes exactly this roster, so requests that race the same
// candidates share cache entries regardless of how they spelled the
// config.
func (pc *PortfolioConfig) normalized() PortfolioConfig {
	out := PortfolioConfig{}
	if pc != nil {
		out = *pc
	}
	if len(out.Roster) == 0 {
		out.Roster = DefaultRoster()
	}
	if out.MaxCandidates > 0 && out.MaxCandidates < len(out.Roster) {
		out.Roster = out.Roster[:out.MaxCandidates]
	}
	out.MaxCandidates = 0 // folded into the roster above
	return out
}

// validate is the Options.Validate leg for the portfolio fields.
func (pc *PortfolioConfig) validate(bad func(format string, args ...any) error) error {
	if pc == nil {
		return nil
	}
	if len(pc.Roster) > maxJoinWidth {
		return bad("portfolio roster of %d exceeds %d candidates", len(pc.Roster), maxJoinWidth)
	}
	for i, c := range pc.Roster {
		if c.Algorithm == Portfolio {
			return bad("portfolio roster[%d] cannot nest the portfolio algorithm", i)
		}
		if c.Algorithm == "" || !algorithms[c.Algorithm] {
			return bad("portfolio roster[%d] has unknown algorithm %q", i, c.Algorithm)
		}
		if c.SeedSplit < 0 {
			return bad("portfolio roster[%d] SeedSplit %d is negative", i, c.SeedSplit)
		}
	}
	if pc.MaxCandidates < 0 {
		return bad("portfolio MaxCandidates %d is negative", pc.MaxCandidates)
	}
	return nil
}

// encodePortfolio joins the normalized roster over the run's pool and
// returns the winner: the candidate with the smallest final area, ties
// broken by roster order. Candidate failures (a gave-up iexact, an
// unencodable baseline) only lose the race; the run fails when every
// candidate failed. When the context dies mid-race the candidates that
// already finished still decide a winner — the best cover within the
// deadline — and only a race with no finished candidate at all returns
// ErrCanceled.
func encodePortfolio(ctx context.Context, eng *engine, p *prepared, opt Options) (*Result, error) {
	roster := opt.Portfolio.normalized().Roster
	m := obs.MetricsFrom(ctx)
	out, win := sched.Cheapest(ctx, eng.pool, len(roster), func(ctx context.Context, i int) (*Result, int64, error) {
		c := roster[i]
		o := opt
		o.Algorithm = c.Algorithm
		o.Portfolio = nil
		if c.SeedSplit != 0 {
			o.Seed = sched.SplitSeed(opt.Seed, c.SeedSplit)
		}
		m.Add("portfolio.launched", 1)
		sctx, sp := obs.Span(ctx, "portfolio.candidate")
		r, err := encodeWith(sctx, eng, p, o)
		if sp != nil {
			sp.SetStr("candidate", c.label())
			sp.SetStr("outcome", outcomeOf(err))
			if r != nil {
				sp.SetInt("area", int64(r.Area))
			}
			sp.End()
		}
		return costed(r, err)
	})
	if win < 0 {
		if err := ctx.Err(); err != nil {
			return nil, canceledErr(err)
		}
		errs := make([]error, 0, len(out))
		for i, o := range out {
			errs = append(errs, fmt.Errorf("%s: %w", roster[i].label(), o.Err))
		}
		return nil, fmt.Errorf("nova: portfolio: every candidate failed: %w", errors.Join(errs...))
	}
	res := out[win].Value
	res.Algorithm = Portfolio
	res.Winner = roster[win].Algorithm
	res.WinnerSeedSplit = roster[win].SeedSplit
	m.Add("portfolio.won", 1)
	m.Add("portfolio.winner."+roster[win].label(), 1)
	return res, nil
}
