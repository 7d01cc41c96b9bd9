package main

// The -compare mode: diff two benchmark records written by
// scripts/bench_record.sh. A record is {"runs":[{"meta":…,"result":…},…]},
// perfbench's meta and result lines as printed, one run per (workload,
// seed, seconds). area_total and cubes_total are deterministic for such a
// key, so they must match exactly. The other end-to-end metrics are
// timings and memory from whatever host recorded each file, so they are
// printed against their BENCHMARK.json bounds and never change the exit
// code; paired runs on one host are the timing gate.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// exactMetrics are the end-to-end metrics a run key fixes exactly.
var exactMetrics = []string{"area_total", "cubes_total"}

// sides names the two records, baseline first.
var sides = [2]string{"baseline", "candidate"}

// benchRun is one perfbench run of a record.
type benchRun struct {
	Meta struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  float64 `json:"seconds"`
	} `json:"meta"`
	Result struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	} `json:"result"`
}

type metric struct {
	Value float64 `json:"value"`
}

// runKey identifies a run: the same key fixes the same inputs and work.
type runKey struct {
	workload string
	seed     int64
	seconds  float64
}

func (k runKey) String() string {
	return fmt.Sprintf("%s seed %d (%gs)", k.workload, k.seed, k.seconds)
}

// benchSpec is the part of BENCHMARK.json the compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecord reads a record's runs by key.
func readRecord(path string) (map[runKey]benchRun, error) {
	var rec struct {
		Runs []benchRun `json:"runs"`
	}
	if err := readJSON(path, &rec); err != nil {
		return nil, err
	}
	if len(rec.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs (not a scripts/bench_record.sh record)", path)
	}
	runs := make(map[runKey]benchRun, len(rec.Runs))
	for _, r := range rec.Runs {
		k := runKey{r.Meta.Workload, r.Meta.Seed, r.Meta.Seconds}
		if _, dup := runs[k]; dup {
			return nil, fmt.Errorf("%s: %v recorded twice", path, k)
		}
		runs[k] = r
	}
	return runs, nil
}

// sortedKeys returns the keys of runs ordered by workload, seed, seconds.
func sortedKeys(runs map[runKey]benchRun) []runKey {
	keys := make([]runKey, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b runKey) int {
		return cmp.Or(strings.Compare(a.workload, b.workload), cmp.Compare(a.seed, b.seed), cmp.Compare(a.seconds, b.seconds))
	})
	return keys
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between the closest ranks as perfbench does.
func quartiles(xs []float64) [3]float64 {
	slices.Sort(xs)
	var q [3]float64
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(xs)-1)
		lo := int(pos)
		q[i] = xs[lo]
		if lo+1 < len(xs) {
			q[i] += (pos - float64(lo)) * (xs[lo+1] - xs[lo])
		}
	}
	return q
}

// compareMain implements -compare OLD.json,NEW.json against the bounds in
// specPath, writing its report to w. Exit status 0: every run passed and
// the exact metrics match. 1: a run failed, a workload of the spec is
// missing, or an exact metric differs. 2: the input could not be read, or
// the two records hold different runs.
func compareMain(arg, specPath string, w io.Writer) int {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok || oldPath == "" || newPath == "" {
		fmt.Fprintln(w, "novabench: -compare wants OLD.json,NEW.json")
		return 2
	}
	var spec benchSpec
	var oldRuns, newRuns map[runKey]benchRun
	err := readJSON(specPath, &spec)
	if err == nil {
		oldRuns, err = readRecord(oldPath)
	}
	if err == nil {
		newRuns, err = readRecord(newPath)
	}
	if err != nil {
		fmt.Fprintln(w, "novabench:", err)
		return 2
	}
	return compareRecords(w, spec, oldRuns, newRuns)
}

// compareRecords reports on two records read by compareMain and returns
// its exit status.
func compareRecords(w io.Writer, spec benchSpec, oldRuns, newRuns map[runKey]benchRun) int {
	records := [2]map[runKey]benchRun{oldRuns, newRuns}
	mismatch := false
	for i, runs := range records {
		for _, k := range sortedKeys(runs) {
			if _, ok := records[1-i][k]; !ok {
				fmt.Fprintf(w, "novabench: %v only in the %s\n", k, sides[i])
				mismatch = true
			}
		}
	}
	if mismatch {
		return 2
	}

	keys := sortedKeys(oldRuns)
	var failures []string
	for _, wl := range spec.Workloads {
		if !slices.ContainsFunc(keys, func(k runKey) bool { return k.workload == wl.Name }) {
			failures = append(failures, "workload "+wl.Name+" has no runs")
		}
	}
	for _, k := range keys {
		o, n := oldRuns[k], newRuns[k]
		for i, r := range [2]benchRun{o, n} {
			if res := r.Result; res.Failed > 0 || !res.Correct {
				failures = append(failures, fmt.Sprintf("%v: %s run failed %d operations (correct %v)", k, sides[i], res.Failed, res.Correct))
			}
		}
		for _, m := range exactMetrics {
			ov, oOK := o.Result.Metrics[m]
			nv, nOK := n.Result.Metrics[m]
			if !oOK || !nOK || ov != nv {
				failures = append(failures, fmt.Sprintf("%v: %s %g -> %g", k, m, ov.Value, nv.Value))
			}
		}
	}

	fmt.Fprintf(w, "%d runs in both records; %s must match on each\n", len(keys), strings.Join(exactMetrics, " and "))
	fmt.Fprintln(w, "advisory, never failing the compare: median [q1, q3] over seeds, baseline -> candidate")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if slices.Contains(exactMetrics, m.Name) {
				continue
			}
			var ov, nv []float64
			for _, k := range keys {
				if k.workload == wl.Name {
					ov = append(ov, oldRuns[k].Result.Metrics[m.Name].Value)
					nv = append(nv, newRuns[k].Result.Metrics[m.Name].Value)
				}
			}
			if len(ov) == 0 {
				continue
			}
			oq, nq := quartiles(ov), quartiles(nv)
			change := nq[1]/oq[1] - 1
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			note := ""
			if worse > m.Bound {
				note = "  past bound"
			}
			fmt.Fprintf(w, "  %-12s %-12s %9.4g [%.4g, %.4g] -> %9.4g [%.4g, %.4g]  %+6.1f%% (bound %.0f%%, %s is better)%s\n",
				wl.Name, m.Name, oq[1], oq[0], oq[2], nq[1], nq[0], nq[2], 100*change, 100*m.Bound, m.Better, note)
		}
	}

	for _, f := range failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Fprintln(w, "OK: every run passed and", strings.Join(exactMetrics, " and "), "match on every run")
	return 0
}
