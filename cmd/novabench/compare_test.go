package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

// baseRuns is a passing record of every BENCHMARK.json workload at seeds
// 1 to 3.
func baseRuns() []benchRun {
	var runs []benchRun
	for _, wl := range []string{"best-cold", "greedy-cold", "serve-mix"} {
		for seed := int64(1); seed <= 3; seed++ {
			var r benchRun
			r.Meta.Workload, r.Meta.Seed, r.Meta.Seconds = wl, seed, 25
			r.Result.Correct = true
			r.Result.Metrics = map[string]metric{
				"setup_s":     {0.01},
				"ops_per_s":   {40 + float64(seed)},
				"geomean_ms":  {20},
				"tail_ms":     {60},
				"area_total":  {100000 + float64(seed)},
				"cubes_total": {4000 + float64(seed)},
				"peak_rss_mb": {30},
			}
			runs = append(runs, r)
		}
	}
	return runs
}

func writeRecord(t *testing.T, runs []benchRun) string {
	t.Helper()
	data, err := json.Marshal(map[string][]benchRun{"runs": runs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "record.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compareRuns compares a record of baseRuns with one of edited runs.
func compareRuns(t *testing.T, edit func([]benchRun) []benchRun) (int, string) {
	t.Helper()
	var out bytes.Buffer
	code := compareMain(writeRecord(t, baseRuns())+","+writeRecord(t, edit(baseRuns())), specPath, &out)
	return code, out.String()
}

// TestCompareNoRegression: identical records pass, the committed baseline
// included.
func TestCompareNoRegression(t *testing.T) {
	code, out := compareRuns(t, func(r []benchRun) []benchRun { return r })
	if code != 0 || !strings.Contains(out, "OK") {
		t.Fatalf("identical records exited %d:\n%s", code, out)
	}
	baselines, _ := filepath.Glob("../../BENCH_*.json")
	if len(baselines) != 1 {
		t.Fatalf("want one committed baseline, found %v", baselines)
	}
	var buf bytes.Buffer
	if code := compareMain(baselines[0]+","+baselines[0], specPath, &buf); code != 0 {
		t.Fatalf("committed baseline against itself exited %d:\n%s", code, buf.String())
	}
}

// TestCompareAreaRegression: area_total or cubes_total off by one on one
// (workload, seed) fails and names it.
func TestCompareAreaRegression(t *testing.T) {
	for _, tc := range []struct {
		run    int
		metric string
		want   string
	}{
		{4, "area_total", "greedy-cold seed 2 (25s): area_total 100002 -> 100003"},
		{8, "cubes_total", "serve-mix seed 3 (25s): cubes_total 4003 -> 4002"},
	} {
		code, out := compareRuns(t, func(r []benchRun) []benchRun {
			m := r[tc.run].Result.Metrics[tc.metric]
			if tc.metric == "area_total" {
				m.Value++
			} else {
				m.Value--
			}
			r[tc.run].Result.Metrics[tc.metric] = m
			return r
		})
		if code != 1 || !strings.Contains(out, "FAIL "+tc.want) {
			t.Errorf("%s changed: exit %d, want 1 naming %q:\n%s", tc.metric, code, tc.want, out)
		}
	}
}

// TestCompareWallclockRegression: a timing past its bound is reported but
// never fails the compare; only a shared runner's paired runs can gate it.
func TestCompareWallclockRegression(t *testing.T) {
	code, out := compareRuns(t, func(r []benchRun) []benchRun {
		for i := range r[:3] {
			r[i].Result.Metrics["ops_per_s"] = metric{r[i].Result.Metrics["ops_per_s"].Value / 2}
			r[i].Result.Metrics["tail_ms"] = metric{120}
		}
		return r
	})
	if code != 0 {
		t.Fatalf("timing regression exited %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{"best-cold    ops_per_s", "best-cold    tail_ms"} {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
		if line, _, _ := strings.Cut(out[i:], "\n"); !strings.HasSuffix(line, "past bound") {
			t.Errorf("line not flagged: %s", line)
		}
	}
	if strings.Count(out, "past bound") != 2 {
		t.Errorf("want exactly two flagged lines:\n%s", out)
	}
}

// TestCompareOldSchemaSnapshot: a snapshot of the deleted novabench -json
// schema (tables and results, no runs) is refused as unreadable rather
// than compared as empty.
func TestCompareOldSchemaSnapshot(t *testing.T) {
	old := filepath.Join(t.TempDir(), "BENCH_2026-08-06.json")
	snap := `{"date":"2026-08-06","tables":[{"table":"table-2","serial_ns_per_op":480289480}]}`
	if err := os.WriteFile(old, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareMain(old+","+writeRecord(t, baseRuns()), specPath, &out); code != 2 || !strings.Contains(out.String(), "no runs") {
		t.Fatalf("old schema exited %d, want 2:\n%s", code, out.String())
	}
}

// TestCompareMainExitCodes: failed runs and missing workloads exit 1;
// records over different runs and unreadable input exit 2.
func TestCompareMainExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func([]benchRun) []benchRun
		code int
		want string
	}{
		{"failed operation", func(r []benchRun) []benchRun {
			r[1].Result.Failed, r[1].Result.Correct = 1, false
			return r
		}, 1, "best-cold seed 2 (25s): candidate run failed 1 operations"},
		{"different seconds", func(r []benchRun) []benchRun {
			r[7].Meta.Seconds = 10
			return r
		}, 2, "serve-mix seed 2 (25s) only in the baseline"},
		{"missing seed", func(r []benchRun) []benchRun { return r[1:] }, 2, "best-cold seed 1 (25s) only in the baseline"},
	} {
		code, out := compareRuns(t, tc.edit)
		if code != tc.code || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exit %d, want %d naming %q:\n%s", tc.name, code, tc.code, tc.want, out)
		}
	}

	// A workload missing from both records leaves nothing to compare it on.
	noServe := writeRecord(t, baseRuns()[:6])
	var out bytes.Buffer
	if code := compareMain(noServe+","+noServe, specPath, &out); code != 1 || !strings.Contains(out.String(), "workload serve-mix has no runs") {
		t.Errorf("missing workload: exit %d, want 1:\n%s", code, out.String())
	}

	good := writeRecord(t, baseRuns())
	for _, arg := range []string{"justone.json", good + "," + filepath.Join(t.TempDir(), "missing.json")} {
		if code := compareMain(arg, specPath, &out); code != 2 {
			t.Errorf("-compare %s exited %d, want 2", arg, code)
		}
	}
}
