package main

// The -json mode: a machine-readable performance snapshot of the
// paper's core tables. The snapshot lands in BENCH_<date>.json next to
// the working directory, one file per day, suitable for archiving as a
// CI artifact.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"nova"
	"nova/internal/experiments"
)

// tableBench is one measurement of a table regeneration. With
// -count > 1 the ns_per_op fields hold the mean over the repetitions
// (so -compare keeps firing on means without schema changes) and the
// _min fields record the best single repetition. The serial_ prefix
// keeps the field names of older snapshots, which -compare still reads.
type tableBench struct {
	Table        string `json:"table"`
	SerialNsOp   int64  `json:"serial_ns_per_op"`
	SerialAllocs uint64 `json:"serial_allocs_per_op"`
	Count        int    `json:"count,omitempty"`
	SerialNsMin  int64  `json:"serial_ns_per_op_min,omitempty"`
}

type benchSnapshot struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Note       string       `json:"note"`
	Tables     []tableBench `json:"tables"`
	// Results carries the encode outcomes of the measured sweep through
	// the wire-stable nova.Response schema — the same serialization the
	// novad server emits, so downstream tooling parses one format.
	Results []nova.Response `json:"results,omitempty"`
	// Portfolio holds the -portfolio quality-vs-wallclock rows: the
	// portfolio race against each single roster algorithm per machine.
	Portfolio []portfolioRow `json:"portfolio,omitempty"`
}

// measure runs fn once and reports its wall time and allocation count.
// One table regeneration is the "op": seconds of work, so a single run
// is a stable enough sample for a daily snapshot (and the encodes inside
// are deterministic — only scheduling varies between runs).
func measure(fn func() error) (ns int64, allocs uint64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed.Nanoseconds(), after.Mallocs - before.Mallocs, nil
}

// regenerate runs one table on a fresh runner (fresh result cache: the
// measurement must redo the encodes, not read memoized results). The
// runner is parked in *keep, so the caller can serialize its memoized
// results after the measurement.
func regenerate(opts experiments.RunOpts, table int, keep **experiments.Runner) func() error {
	return func() error {
		r := experiments.NewRunner(opts)
		if keep != nil {
			*keep = r
		}
		var err error
		switch table {
		case 2:
			_, err = r.TableII()
		case 4:
			_, err = r.TableIV()
		case 6:
			_, err = r.TableVI()
		default:
			err = fmt.Errorf("unsupported table %d", table)
		}
		return err
	}
}

// wireResults renders every memoized encode of the runner through the
// wire-stable Response type, in suite order with a fixed algorithm
// order, so the snapshot is deterministic.
func wireResults(opts experiments.RunOpts, r *experiments.Runner) []nova.Response {
	if r == nil {
		return nil
	}
	algs := []nova.Algorithm{nova.IExact, nova.IHybrid, nova.IGreedy, nova.IOHybrid}
	var out []nova.Response
	for _, f := range opts.Machines() {
		for _, alg := range algs {
			res := r.Memoized(f.Name, alg, 0)
			if res == nil {
				continue
			}
			out = append(out, *nova.ResponseOf(f, res))
		}
	}
	return out
}

// writeBenchJSON writes BENCH_<date>.json with the requested sections:
// withTables measures tables II, IV and VI (count repetitions each,
// reporting mean and min); withPortfolio adds the portfolio
// quality-vs-wallclock rows over the same machines.
func writeBenchJSON(opts experiments.RunOpts, count int, withTables, withPortfolio bool) (string, error) {
	if count < 1 {
		count = 1
	}
	snap := benchSnapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "serial_ns_per_op is the wall-clock of one table regeneration, measured in " +
			"one pass per table and repetition: each encode runs its pipeline serially and " +
			"the machines fan out over the -parallel workers (default GOMAXPROCS). allocs " +
			"are process-wide Mallocs deltas per regeneration. with -count > 1 the " +
			"ns_per_op fields are means over the repetitions and " +
			"*_min the best single one; the process-global memos (tautology, failed " +
			"embeddings) stay warm across repetitions and tables, so later runs measure " +
			"the cached regime — exactly what a long-lived server sees. " +
			"portfolio rows compare the portfolio race against each roster algorithm run " +
			"alone: area_vs_best_single <= 1.0 is the quality bar, wallclock_vs_fastest " +
			"needs spare CPUs to approach 1.0.",
	}
	if withPortfolio {
		rows, err := measurePortfolio(opts)
		if err != nil {
			return "", fmt.Errorf("portfolio: %w", err)
		}
		snap.Portfolio = rows
	}
	if withTables {
		if err := measureTables(opts, count, &snap); err != nil {
			return "", err
		}
	}
	name := "BENCH_" + snap.Date + ".json"
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return "", err
	}
	return name, nil
}

// repeatMeasure runs the measurement count times and reports the mean
// and minimum wall time plus the mean allocation count. Each repetition
// regenerates on a fresh runner (fresh result cache), but the
// process-global memos stay warm — repetitions after the first measure
// the steady state.
func repeatMeasure(fn func() error, count int) (mean, min int64, allocs uint64, err error) {
	var sumNs, sumAllocs uint64
	for i := 0; i < count; i++ {
		ns, al, err := measure(fn)
		if err != nil {
			return 0, 0, 0, err
		}
		sumNs += uint64(ns)
		sumAllocs += al
		if i == 0 || ns < min {
			min = ns
		}
	}
	return int64(sumNs / uint64(count)), min, sumAllocs / uint64(count), nil
}

// measureTables fills the table measurements of the snapshot, count
// repetitions per table.
func measureTables(opts experiments.RunOpts, count int, snap *benchSnapshot) error {
	seen := make(map[string]bool)
	for _, table := range []int{2, 4, 6} {
		var runner *experiments.Runner
		ns, min, allocs, err := repeatMeasure(regenerate(opts, table, &runner), count)
		if err != nil {
			return fmt.Errorf("table %d: %w", table, err)
		}
		// Tables share machines; keep the first Response per
		// machine/algorithm pair so the snapshot has no duplicates.
		// (runner is the last repetition's — encodes are deterministic,
		// so every repetition memoized the same results.)
		for _, resp := range wireResults(opts, runner) {
			key := resp.Machine + "/" + string(resp.Algorithm)
			if seen[key] {
				continue
			}
			seen[key] = true
			snap.Results = append(snap.Results, resp)
		}
		tb := tableBench{
			Table:        fmt.Sprintf("table-%d", table),
			SerialNsOp:   ns,
			SerialAllocs: allocs,
		}
		if count > 1 {
			tb.Count = count
			tb.SerialNsMin = min
		}
		snap.Tables = append(snap.Tables, tb)
	}
	return nil
}
