package main

// The -portfolio mode: quality-vs-wallclock rows for the portfolio
// encoder over the Table II/IV/VI machines. For every machine the
// portfolio race (Parallelism >= 4) is timed against each single roster
// algorithm run alone; the snapshot records whether the race matched the
// best single-algorithm cover and how its wall-clock compares to the
// fastest roster member. The rows land in the same BENCH_<date>.json the
// -json mode writes, under the "portfolio" key.

import (
	"context"
	"fmt"
	"time"

	"nova"
	"nova/internal/experiments"
)

// portfolioRow is one machine's quality-vs-wallclock measurement.
type portfolioRow struct {
	Machine string `json:"machine"`
	// Winner is the roster member whose cover the race returned
	// ("algorithm" or "algorithm@split" for a seed-split restart).
	Winner string `json:"winner"`
	Area   int    `json:"area"`
	Cubes  int    `json:"cubes"`
	// BestSingle* describe the best cover any single roster algorithm
	// found on its own with the same options.
	BestSingleAlgorithm string `json:"best_single_algorithm"`
	BestSingleArea      int    `json:"best_single_area"`
	// AreaVsBestSingle is Area / BestSingleArea; the acceptance bar is
	// <= 1.0 (the race never returns a worse cover than its members).
	AreaVsBestSingle float64 `json:"area_vs_best_single"`
	PortfolioNs      int64   `json:"portfolio_ns"`
	// FastestSingle* describe the quickest standalone roster algorithm —
	// the wall-clock the portfolio race is paying against.
	FastestSingleAlgorithm string  `json:"fastest_single_algorithm"`
	FastestSingleNs        int64   `json:"fastest_single_ns"`
	WallclockVsFastest     float64 `json:"wallclock_vs_fastest"`
}

// portfolioOptions is the option set every portfolio-vs-singles
// measurement runs under: parallel enough for the race to overlap
// candidates (the quality-vs-wallclock comparison assumes Parallelism
// >= 4), same seed and budget on both sides.
func portfolioOptions(o experiments.RunOpts) nova.Options {
	par := o.Parallel
	if par < 4 {
		par = 4
	}
	return nova.Options{
		Seed:         o.Seed,
		FastMinimize: o.FastMinimize,
		MaxWork:      o.ExactBudget,
		Parallelism:  par,
	}
}

// measurePortfolio builds the quality-vs-wallclock rows: one portfolio
// race and one standalone run per distinct roster algorithm, per
// machine, all timed.
func measurePortfolio(opts experiments.RunOpts) ([]portfolioRow, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	base := portfolioOptions(opts)
	// The standalone comparison covers each distinct base algorithm of
	// the roster once; seed-split restarts are portfolio-internal.
	var singles []nova.Algorithm
	seen := map[nova.Algorithm]bool{}
	for _, c := range nova.DefaultRoster() {
		if !seen[c.Algorithm] {
			seen[c.Algorithm] = true
			singles = append(singles, c.Algorithm)
		}
	}
	var rows []portfolioRow
	for _, f := range opts.Machines() {
		opt := base
		opt.Algorithm = nova.Portfolio
		start := time.Now()
		res, err := nova.EncodeContext(ctx, f, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: portfolio: %w", f.Name, err)
		}
		row := portfolioRow{
			Machine:     f.Name,
			Winner:      string(res.Winner),
			Area:        res.Area,
			Cubes:       res.Cubes,
			PortfolioNs: time.Since(start).Nanoseconds(),
		}
		if res.WinnerSeedSplit != 0 {
			row.Winner = fmt.Sprintf("%s@%d", res.Winner, res.WinnerSeedSplit)
		}
		for _, alg := range singles {
			opt := base
			opt.Algorithm = alg
			start := time.Now()
			single, err := nova.EncodeContext(ctx, f, opt)
			if err != nil {
				// A gave-up candidate loses the race; it drops out of the
				// standalone comparison the same way.
				continue
			}
			ns := time.Since(start).Nanoseconds()
			if row.BestSingleArea == 0 || single.Area < row.BestSingleArea {
				row.BestSingleAlgorithm = string(alg)
				row.BestSingleArea = single.Area
			}
			if row.FastestSingleNs == 0 || ns < row.FastestSingleNs {
				row.FastestSingleAlgorithm = string(alg)
				row.FastestSingleNs = ns
			}
		}
		if row.BestSingleArea > 0 {
			row.AreaVsBestSingle = float64(row.Area) / float64(row.BestSingleArea)
		}
		if row.FastestSingleNs > 0 {
			row.WallclockVsFastest = float64(row.PortfolioNs) / float64(row.FastestSingleNs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
