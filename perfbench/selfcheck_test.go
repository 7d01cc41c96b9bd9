package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"nova"
	"nova/internal/bench"
)

// TestReplayMatchesGolden runs the benchmark's layer-by-layer ihybrid
// replay over the built-in suite, without the huge machines, and matches
// cubes and area against the repository's golden corpus (ihybrid, seed 1,
// minimum length).
func TestReplayMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("../testdata/golden/encoded.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]int{}
	for _, line := range strings.Split(string(data), "\n") {
		var name string
		var bits, cubes, inl, outl, area int
		if _, err := fmt.Sscanf(line, "%s bits=%d cubes=%d inlits=%d outlits=%d area=%d", &name, &bits, &cubes, &inl, &outl, &area); err == nil {
			want[name] = [2]int{cubes, area}
		}
	}
	for _, e := range bench.Suite() {
		if e.Huge {
			continue
		}
		w, ok := want[e.Name]
		if !ok {
			t.Errorf("%s: not in the golden corpus", e.Name)
			continue
		}
		rep, err := replay(newTracer(), e.F, nova.IHybrid, 1)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if rep.cubes != w[0] || rep.area != w[1] {
			t.Errorf("%s: replay gives cubes=%d area=%d, golden cubes=%d area=%d", e.Name, rep.cubes, rep.area, w[0], w[1])
		}
	}
}

// TestWorkloadsPrintDeclaredMetrics runs every workload untraced at its
// smallest size and checks that it succeeds and prints exactly the
// end-to-end metrics BENCHMARK.json declares, each non-zero and with the
// declared unit.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, wl := range decl.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Errorf("workload %s is declared but not implemented", wl.Name)
			continue
		}
		res := w.run(config{workload: wl.Name, seed: 5, seconds: 0.01})
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d", wl.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(decl.EndToEnd) {
			t.Errorf("%s: %d metrics, %d declared", wl.Name, len(res.Metrics), len(decl.EndToEnd))
		}
		for _, m := range decl.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: metric %s = %+v (present %t), want unit %s and a non-zero value", wl.Name, m.Name, got, ok, m.Unit)
			}
		}
	}
}
