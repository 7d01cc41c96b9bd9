package main

// The -compare mode: diff two BENCH_<date>.json snapshots and fail (exit
// 1) on regressions — encoded area growing past -area-tol, or table
// wall-clock growing past -time-tol. Area regressions are the signal
// (encodes are deterministic, so any growth is a real quality change);
// wall-clock carries scheduling noise, hence the generous default
// tolerance and the non-blocking CI job that runs this against the
// committed baseline.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"nova"
)

// compareReport is the outcome of one snapshot diff: human-readable
// lines for everything compared, plus the subset that regressed.
type compareReport struct {
	lines       []string
	regressions []string
}

func (r *compareReport) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *compareReport) regressf(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.lines = append(r.lines, "REGRESSION "+s)
	r.regressions = append(r.regressions, s)
}

func readSnapshot(path string) (*benchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// pctDelta is the growth of cur over base in percent (positive = worse
// for costs like area and wall-clock).
func pctDelta(base, cur int64) float64 {
	if base <= 0 {
		return 0
	}
	return float64(cur-base) / float64(base) * 100
}

// compareSnapshots diffs new against old. Sections absent from either
// snapshot are skipped with a note: the committed baseline may predate
// -portfolio, and a tables-only baseline still gates the table timings.
func compareSnapshots(oldSnap, newSnap *benchSnapshot, areaTolPct, timeTolPct float64) *compareReport {
	r := &compareReport{}
	r.notef("baseline %s (%s) vs candidate %s (%s)",
		oldSnap.Date, oldSnap.GoVersion, newSnap.Date, newSnap.GoVersion)

	compareTables(r, oldSnap.Tables, newSnap.Tables, timeTolPct)
	compareResults(r, oldSnap.Results, newSnap.Results, areaTolPct)
	comparePortfolio(r, oldSnap.Portfolio, newSnap.Portfolio, areaTolPct)
	return r
}

func compareTables(r *compareReport, oldT, newT []tableBench, timeTolPct float64) {
	if len(oldT) == 0 || len(newT) == 0 {
		r.notef("tables: skipped (baseline has %d, candidate has %d)", len(oldT), len(newT))
		return
	}
	base := make(map[string]tableBench, len(oldT))
	for _, tb := range oldT {
		base[tb.Table] = tb
	}
	for _, tb := range newT {
		ob, ok := base[tb.Table]
		if !ok {
			r.notef("%s: new table, no baseline", tb.Table)
			continue
		}
		d := pctDelta(ob.SerialNsOp, tb.SerialNsOp)
		if d > timeTolPct {
			r.regressf("%s serial wall-clock %+.1f%% (%.3fs -> %.3fs, tol %.0f%%)",
				tb.Table, d, float64(ob.SerialNsOp)/1e9, float64(tb.SerialNsOp)/1e9, timeTolPct)
		} else {
			r.notef("%s serial wall-clock %+.1f%% (%.3fs -> %.3fs)",
				tb.Table, d, float64(ob.SerialNsOp)/1e9, float64(tb.SerialNsOp)/1e9)
		}
	}
}

func compareResults(r *compareReport, oldR, newR []nova.Response, areaTolPct float64) {
	if len(oldR) == 0 || len(newR) == 0 {
		r.notef("results: skipped (baseline has %d, candidate has %d)", len(oldR), len(newR))
		return
	}
	base := make(map[string]nova.Response, len(oldR))
	for _, resp := range oldR {
		if resp.Error == "" {
			base[resp.Machine+"/"+string(resp.Algorithm)] = resp
		}
	}
	keys := make([]string, 0, len(newR))
	byKey := make(map[string]nova.Response, len(newR))
	for _, resp := range newR {
		if resp.Error != "" {
			continue
		}
		k := resp.Machine + "/" + string(resp.Algorithm)
		keys = append(keys, k)
		byKey[k] = resp
	}
	sort.Strings(keys)
	worse, better, same := 0, 0, 0
	for _, k := range keys {
		ob, ok := base[k]
		if !ok {
			continue
		}
		resp := byKey[k]
		d := pctDelta(int64(ob.Area), int64(resp.Area))
		switch {
		case d > areaTolPct:
			worse++
			r.regressf("%s area %+.1f%% (%d -> %d, tol %.1f%%)", k, d, ob.Area, resp.Area, areaTolPct)
		case resp.Area < ob.Area:
			better++
		default:
			same++
		}
	}
	r.notef("results: %d compared, %d improved, %d unchanged, %d regressed",
		worse+better+same, better, same, worse)
}

func comparePortfolio(r *compareReport, oldP, newP []portfolioRow, areaTolPct float64) {
	if len(oldP) == 0 || len(newP) == 0 {
		r.notef("portfolio: skipped (baseline has %d, candidate has %d)", len(oldP), len(newP))
		return
	}
	base := make(map[string]portfolioRow, len(oldP))
	for _, row := range oldP {
		base[row.Machine] = row
	}
	for _, row := range newP {
		ob, ok := base[row.Machine]
		if !ok {
			continue
		}
		d := pctDelta(int64(ob.Area), int64(row.Area))
		if d > areaTolPct {
			r.regressf("portfolio %s area %+.1f%% (%d -> %d, tol %.1f%%)",
				row.Machine, d, ob.Area, row.Area, areaTolPct)
		} else {
			r.notef("portfolio %s area %+.1f%% (%d -> %d, winner %s -> %s)",
				row.Machine, d, ob.Area, row.Area, ob.Winner, row.Winner)
		}
	}
}

// compareMain implements -compare OLD.json,NEW.json. Exit status 0 means
// no regression past the tolerances; 1 means regressions (listed on
// stdout); 2 means the snapshots could not be read.
func compareMain(arg string, areaTolPct, timeTolPct float64) int {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok || oldPath == "" || newPath == "" {
		fmt.Fprintln(os.Stderr, "novabench: -compare wants OLD.json,NEW.json")
		return 2
	}
	oldSnap, err := readSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "novabench:", err)
		return 2
	}
	newSnap, err := readSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "novabench:", err)
		return 2
	}
	r := compareSnapshots(oldSnap, newSnap, areaTolPct, timeTolPct)
	for _, line := range r.lines {
		fmt.Println(line)
	}
	if len(r.regressions) > 0 {
		fmt.Printf("FAIL: %d regression(s)\n", len(r.regressions))
		return 1
	}
	fmt.Println("OK: no regressions past tolerance")
	return 0
}
