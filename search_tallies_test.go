package nova_test

// Exact searcher tallies: every search.* counter of a serial ihybrid,
// iohybrid and iexact encode is pinned per machine in
// testdata/golden/search_tallies.golden. The searcher is deterministic at
// Parallelism 1 with a fixed seed and budget, and memo replays restore
// the original run's tallies, so the lines do not depend on test order.
// A kernel rewrite that claims to make the same decisions must leave
// this file byte-identical. Regenerate deliberately with
//
//	go test -run TestSearchTallies -update
//
// and review the diff like any other behaviour change.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"nova"
	"nova/internal/bench"
)

const talliesFile = "testdata/golden/search_tallies.golden"

// talliesWide adds the edge cases of the searcher's kernels to the fast
// subset when not -short: planet needs k = 6, the widest cube whose
// vertices fit one 64-bit word, and scf needs k = 7.
var talliesWide = map[string]bool{"planet": true, "scf": true}

// talliesAlgorithms are the searching algorithms, serial; iexact runs at
// the budget the searcher regression tests pin.
var talliesAlgorithms = []nova.Options{
	{Algorithm: nova.IHybrid},
	{Algorithm: nova.IOHybrid},
	{Algorithm: nova.IExact, MaxWork: 200_000},
}

// talliesLine encodes f under opt (seed 1, serial, traced) and renders
// the search counters.
func talliesLine(t *testing.T, f *nova.FSM, opt nova.Options) string {
	tracer := nova.NewTracer()
	opt.Seed, opt.Parallelism, opt.Tracer = 1, 1, tracer
	if _, err := nova.Encode(f, opt); err != nil && !errors.Is(err, nova.ErrGaveUp) {
		t.Fatalf("%s/%s: encode: %v", f.Name, opt.Algorithm, err)
	}
	c := tracer.Metrics().Counters()
	return fmt.Sprintf("%-20s work=%d backtracks=%d checks_ok=%d checks_fail=%d pruned=%d refuted=%d",
		f.Name+"/"+string(opt.Algorithm), c["search.work"], c["search.backtracks"],
		c["search.checks_ok"], c["search.checks_fail"], c["search.symmetry.pruned"], c["search.refuted"])
}

func TestSearchTallies(t *testing.T) {
	var machines []*nova.FSM
	for _, e := range bench.Suite() {
		machines = append(machines, e.F)
	}
	machines = append(machines, exampleFSMs(t)...)

	want := map[string]string{}
	if data, err := os.ReadFile(talliesFile); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			want[strings.Fields(line)[0]] = line
		}
	} else if !*update {
		t.Fatalf("tallies file missing (run with -update to create): %v", err)
	}

	got := map[string]string{}
	var keys []string
	for _, f := range machines {
		wide := talliesWide[f.Name] && (*update || !testing.Short())
		if !goldenFastSubset[f.Name] && !wide {
			continue
		}
		for _, opt := range talliesAlgorithms {
			k := f.Name + "/" + string(opt.Algorithm)
			got[k] = talliesLine(t, f, opt)
			keys = append(keys, k)
		}
	}

	if *update {
		var b strings.Builder
		b.WriteString("# Exact search.* tallies: seed 1, serial, default MaxWork, iexact at MaxWork 200000.\n")
		b.WriteString("# Regenerate with: go test -run TestSearchTallies -update\n")
		for _, k := range keys {
			b.WriteString(got[k])
			b.WriteByte('\n')
		}
		if err := os.WriteFile(talliesFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d lines)", talliesFile, len(keys))
		return
	}

	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from tallies file (regenerate with -update)", k)
			continue
		}
		if g := got[k]; g != w {
			t.Errorf("%s: search tallies drift\n  golden: %s\n  got:    %s", k, w, g)
		}
	}
}
