package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nova"
)

func writeSnap(t *testing.T, dir, name string, snap benchSnapshot) string {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseSnapshot() benchSnapshot {
	return benchSnapshot{
		Date: "2026-08-01",
		Tables: []tableBench{
			{Table: "table-2", SerialNsOp: 1_000_000_000},
		},
		Results: []nova.Response{
			{Machine: "dk14", Algorithm: nova.IGreedy, Area: 480, Cubes: 20},
			{Machine: "lion", Algorithm: nova.IExact, Area: 72, Cubes: 8},
			{Machine: "broken", Algorithm: nova.IGreedy, Error: "gave up", ErrorKind: nova.ErrKindGaveUp},
		},
		Portfolio: []portfolioRow{
			{Machine: "dk14", Winner: "ihybrid", Area: 460},
		},
	}
}

// TestCompareNoRegression: identical snapshots (and improvements) pass.
func TestCompareNoRegression(t *testing.T) {
	oldSnap := baseSnapshot()
	newSnap := baseSnapshot()
	newSnap.Results[0].Area = 470                // improvement
	newSnap.Tables[0].SerialNsOp = 1_125_000_000 // +12.5%, inside the 25% tolerance
	r := compareSnapshots(&oldSnap, &newSnap, 0, 25)
	if len(r.regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", r.regressions)
	}
}

// TestCompareAreaRegression: any area growth past the tolerance fails,
// and the failed baseline entry (Error set) is excluded from the diff.
func TestCompareAreaRegression(t *testing.T) {
	oldSnap := baseSnapshot()
	newSnap := baseSnapshot()
	newSnap.Results[1].Area = 80 // +11% on lion/iexact
	r := compareSnapshots(&oldSnap, &newSnap, 0, 25)
	if len(r.regressions) != 1 {
		t.Fatalf("regressions = %v, want exactly the area one", r.regressions)
	}
	if !strings.Contains(r.regressions[0], "lion/iexact") || !strings.Contains(r.regressions[0], "72 -> 80") {
		t.Fatalf("regression line %q", r.regressions[0])
	}
	// A generous tolerance absorbs it.
	if r := compareSnapshots(&oldSnap, &newSnap, 15, 25); len(r.regressions) != 0 {
		t.Fatalf("tolerance not applied: %v", r.regressions)
	}
}

// TestCompareWallclockRegression: table time growth past -time-tol fails.
func TestCompareWallclockRegression(t *testing.T) {
	oldSnap := baseSnapshot()
	newSnap := baseSnapshot()
	newSnap.Tables[0].SerialNsOp = 1_400_000_000 // +40%
	r := compareSnapshots(&oldSnap, &newSnap, 0, 25)
	if len(r.regressions) != 1 || !strings.Contains(r.regressions[0], "table-2 serial") {
		t.Fatalf("regressions = %v", r.regressions)
	}
}

// TestComparePortfolioRegression: the hedged race losing quality fails.
func TestComparePortfolioRegression(t *testing.T) {
	oldSnap := baseSnapshot()
	newSnap := baseSnapshot()
	newSnap.Portfolio[0].Area = 500
	r := compareSnapshots(&oldSnap, &newSnap, 0, 25)
	if len(r.regressions) != 1 || !strings.Contains(r.regressions[0], "portfolio dk14") {
		t.Fatalf("regressions = %v", r.regressions)
	}
}

// TestCompareSkipsMissingSections: a tables-only baseline (like the
// committed one, which predates -json carrying results) still compares
// the tables and skips the rest instead of failing.
func TestCompareSkipsMissingSections(t *testing.T) {
	oldSnap := benchSnapshot{Tables: []tableBench{{Table: "table-2", SerialNsOp: 1e9}}}
	newSnap := baseSnapshot()
	r := compareSnapshots(&oldSnap, &newSnap, 0, 25)
	if len(r.regressions) != 0 {
		t.Fatalf("missing sections regressed: %v", r.regressions)
	}
	joined := strings.Join(r.lines, "\n")
	for _, want := range []string{"results: skipped", "portfolio: skipped", "table-2 serial wall-clock"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("report lacks %q:\n%s", want, joined)
		}
	}
}

// TestCompareOldSchemaSnapshot: a committed snapshot from before -json
// dropped its intra columns still diffs against the current schema on
// the serial table times and the encode results.
func TestCompareOldSchemaSnapshot(t *testing.T) {
	oldSnap, err := readSnapshot("../../BENCH_2026-08-09.json")
	if err != nil {
		t.Fatal(err)
	}
	cur := benchSnapshot{Date: "2026-10-17", Results: oldSnap.Results}
	for _, tb := range oldSnap.Tables {
		cur.Tables = append(cur.Tables, tableBench{Table: tb.Table, SerialNsOp: tb.SerialNsOp})
	}
	newSnap, err := readSnapshot(writeSnap(t, t.TempDir(), "new.json", cur))
	if err != nil {
		t.Fatal(err)
	}
	r := compareSnapshots(oldSnap, newSnap, 0, 25)
	if len(r.regressions) != 0 {
		t.Fatalf("unexpected regressions: %v", r.regressions)
	}
	ok := 0
	for _, resp := range oldSnap.Results {
		if resp.Error == "" {
			ok++
		}
	}
	joined := strings.Join(r.lines, "\n")
	for _, want := range []string{
		"table-2 serial wall-clock +0.0%",
		"table-4 serial wall-clock +0.0%",
		"table-6 serial wall-clock +0.0%",
		fmt.Sprintf("results: %d compared, 0 improved, %d unchanged, 0 regressed", ok, ok),
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("report lacks %q:\n%s", want, joined)
		}
	}
	if ok == 0 || strings.Contains(joined, "intra") {
		t.Fatalf("old-schema report (%d results):\n%s", ok, joined)
	}
}

// TestCompareMainExitCodes drives the CLI entry: 0 clean, 1 regression,
// 2 unreadable input.
func TestCompareMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldSnap := baseSnapshot()
	newSnap := baseSnapshot()
	oldPath := writeSnap(t, dir, "old.json", oldSnap)
	cleanPath := writeSnap(t, dir, "clean.json", newSnap)
	newSnap.Results[0].Area = 9999
	badPath := writeSnap(t, dir, "bad.json", newSnap)

	if code := compareMain(oldPath+","+cleanPath, 0, 25); code != 0 {
		t.Fatalf("clean compare exited %d", code)
	}
	if code := compareMain(oldPath+","+badPath, 0, 25); code != 1 {
		t.Fatalf("regressed compare exited %d, want 1", code)
	}
	if code := compareMain(oldPath+","+filepath.Join(dir, "missing.json"), 0, 25); code != 2 {
		t.Fatalf("missing file exited %d, want 2", code)
	}
	if code := compareMain("justone.json", 0, 25); code != 2 {
		t.Fatalf("malformed arg exited %d, want 2", code)
	}
	// The committed baseline must stay parseable by this tool.
	if _, err := readSnapshot("../../BENCH_2026-08-06.json"); err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
}
