// Command perfbench is the repository benchmark. For one workload and one
// seed it generates the inputs, drives them through the public API, checks
// every output and prints the end-to-end metrics as the last line of its
// standard output:
//
//	go run . --workload best-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the workload layer by layer from this
// package, timing the exported calls of each layer, and prints the
// per-layer metrics. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
}

// Metric is one named value of the result line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// fail records one failed or unverified operation.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func (r *Result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(config) *Result
}{
	"best-cold":   {func(c config) *Result { return runCold(c, bestCold) }, func(c config) *Result { return traceCold(c, bestCold) }},
	"greedy-cold": {func(c config) *Result { return runCold(c, greedyCold) }, func(c config) *Result { return traceCold(c, greedyCold) }},
	"serve-mix":   {runServe, traceServe},
}

// hardStop bounds any run well inside the 180 s a benchmark run may take.
const hardStop = 150 * time.Second

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 9

func main() {
	var c config
	var trace int
	var walls int
	flag.StringVar(&c.workload, "workload", "best-cold", "best-cold, greedy-cold or serve-mix")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced replay")
	flag.IntVar(&walls, "walls", -1, "internal: print the untraced encode wall of the corpus at this Parallelism")
	flag.Parse()
	w, ok := workloads[c.workload]
	if !ok || (trace != 0 && trace != 1) || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n", c.workload, trace, c.seconds)
		os.Exit(2)
	}
	if walls >= 0 {
		os.Exit(printWalls(c, walls))
	}

	meta := map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)

	run := w.run
	if trace == 1 {
		run = w.trace
	}
	res := run(c)
	if res.Attempted == 0 {
		res.fail("no operation attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit names the source revision: NOVA_BENCH_COMMIT when the launcher
// set it, else the VCS stamp of the build, else "unknown".
func commit() string {
	if s := os.Getenv("NOVA_BENCH_COMMIT"); s != "" {
		return s
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// timeSetup runs setup setupReps times and returns the last result and
// the median duration in seconds. Every earlier result goes to discard
// (when not nil), off the clock.
func timeSetup[T any](setup func() (T, error), discard func(T)) (T, float64, error) {
	var v T
	var err error
	ds := make([]float64, setupReps)
	for i := range ds {
		if i > 0 && discard != nil {
			discard(v)
		}
		t0 := time.Now()
		v, err = setup()
		ds[i] = time.Since(t0).Seconds()
		if err != nil {
			return v, 0, err
		}
	}
	runtime.GC()
	return v, quantile(ds, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (sorting xs in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// geomean returns the geometric mean of xs, all positive. Unlike the
// median of a mix of machine shapes, which can fall in the gap between two
// shapes' latencies and jump with the seed, it weighs every sample.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
