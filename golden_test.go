package nova_test

// Golden regression corpus: the encoded-PLA product-term and literal
// counts of every benchmark FSM and every example FSM are pinned to
// testdata/golden/encoded.golden, and so are the bits, cubes and area of
// iexact, igreedy, iohybrid, Best and the portfolio on the fast subset.
// Perf work on the minimizer hot path (arenas, word-parallel pruning,
// memoization) must not change what the minimizer produces; this test
// fails on any drift. Regenerate deliberately with
//
//	go test -run TestGoldenEncodedPLA -update
//
// and review the diff like any other behaviour change.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nova"
	"nova/internal/bench"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goldenFile = "testdata/golden/encoded.golden"

// goldenFastSubset bounds the -short run to seconds.
var goldenFastSubset = map[string]bool{
	"bbtas": true, "dk27": true, "shiftreg": true, "train11": true,
	"ex3": true, "beecount": true, "dk15": true, "lion": true,
	"traffic": true, "bus": true, "quickstart": true, "microseq": true,
}

// goldenAlgorithms are pinned per machine on goldenFastSubset, each in a
// "machine/algorithm" line after the ihybrid lines. iexact runs at the
// budget the searcher regression tests pin.
var goldenAlgorithms = []nova.Options{
	{Algorithm: nova.IExact, MaxWork: 200_000},
	{Algorithm: nova.IGreedy},
	{Algorithm: nova.IOHybrid},
	{Algorithm: nova.Best},
	{Algorithm: nova.Portfolio},
}

// goldenLine measures one machine under the pinned configuration:
// ihybrid at the minimum length with seed 1, serial (the determinism
// guarantee makes Parallelism irrelevant to the result).
func goldenLine(t testing.TB, f *nova.FSM) string {
	res, err := nova.Encode(f, nova.Options{Algorithm: nova.IHybrid, Seed: 1, KeepPLA: true, Parallelism: 1})
	if err != nil {
		t.Fatalf("%s: encode: %v", f.Name, err)
	}
	inLits, outLits := 0, 0
	for _, r := range res.PLA.Rows {
		inLits += len(r.In) - strings.Count(r.In, "-")
		outLits += strings.Count(r.Out, "1")
	}
	return fmt.Sprintf("%-12s bits=%d cubes=%d inlits=%d outlits=%d area=%d",
		f.Name, res.Bits, res.Cubes, inLits, outLits, res.Area)
}

// goldenAlgLine measures one machine under one of goldenAlgorithms, with
// seed 1, serial.
func goldenAlgLine(t testing.TB, f *nova.FSM, opt nova.Options) string {
	opt.Seed, opt.Parallelism = 1, 1
	res, err := nova.Encode(f, opt)
	if err != nil {
		t.Fatalf("%s: %s: %v", f.Name, opt.Algorithm, err)
	}
	return fmt.Sprintf("%-21s bits=%d cubes=%d area=%d", f.Name+"/"+string(opt.Algorithm), res.Bits, res.Cubes, res.Area)
}

func TestGoldenEncodedPLA(t *testing.T) {
	var machines []*nova.FSM
	for _, e := range bench.Suite() {
		machines = append(machines, e.F)
	}
	machines = append(machines, bench.Examples()...)

	want := map[string]string{}
	if data, err := os.ReadFile(goldenFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			want[strings.Fields(line)[0]] = line
		}
	} else if !*update {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}

	// keys lists the measured lines in file order: every machine's
	// ihybrid line, then the per-algorithm lines of the fast subset.
	got := map[string]string{}
	var keys []string
	for _, f := range machines {
		if testing.Short() && !*update && !goldenFastSubset[f.Name] {
			continue
		}
		got[f.Name] = goldenLine(t, f)
		keys = append(keys, f.Name)
	}
	for _, f := range machines {
		if !goldenFastSubset[f.Name] {
			continue
		}
		for _, opt := range goldenAlgorithms {
			k := f.Name + "/" + string(opt.Algorithm)
			got[k] = goldenAlgLine(t, f, opt)
			keys = append(keys, k)
		}
	}

	if *update {
		var b strings.Builder
		b.WriteString("# Encoded-PLA regression corpus: ihybrid, seed 1, minimum length.\n")
		b.WriteString("# Regenerate with: go test -run TestGoldenEncodedPLA -update\n")
		for i, k := range keys {
			if i == len(machines) {
				b.WriteString("# Fast subset under the other algorithms: seed 1, serial, iexact at MaxWork 200000.\n")
			}
			b.WriteString(got[k])
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", goldenFile, len(keys))
		return
	}

	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden file (regenerate with -update)", k)
			continue
		}
		if g := got[k]; g != w {
			t.Errorf("%s: minimization drift\n  golden: %s\n  got:    %s", k, w, g)
		}
	}
}
