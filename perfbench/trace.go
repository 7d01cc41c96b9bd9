package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"

	"nova"
	"nova/internal/constraint"
	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/symbolic"
	"nova/internal/verify"
)

// layerMetrics are the per-layer metrics of a traced run, in output
// order. A traced run prints every one of them; a layer off the
// workload's path reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"kiss.parse_ms", "ms"},
	{"kiss.rows", "count"},
	{"mvmin.minimize_ms", "ms"},
	{"mvmin.allocs", "count"},
	{"mvmin.cover_cubes", "count"},
	{"mvmin.constraints", "count"},
	{"encode.ihybrid_ms", "ms"},
	{"encode.iohybrid_ms", "ms"},
	{"encode.igreedy_ms", "ms"},
	{"encode.work", "count"},
	{"encode.gave_up", "count"},
	{"encode.allocs", "count"},
	{"encode.wsat_share", "ratio"},
	{"symbolic.analyze_ms", "ms"},
	{"symbolic.oc_edges", "count"},
	{"espresso.final_ms", "ms"},
	{"espresso.final_cubes", "count"},
	{"espresso.allocs", "count"},
	{"sched.best_speedup", "x"},
	{"verify.check_ms", "ms"},
	{"serve.cache_key_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.handler_miss_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.engine_encodes", "count"},
	{"serve.flight_shared", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"client.overhead_ms", "ms"},
	{"client.retries", "count"},
	{"trace.overhead_ms", "ms"},
	{"error_rate", "ratio"},
}

// span is one timed call into a layer.
type span struct {
	name   string
	dur    time.Duration
	allocs uint64
}

// tracer keeps the spans and counters of a traced run in memory until the
// run ends. It times calls from outside the program; nothing is recorded
// inside it.
type tracer struct {
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{counts: map[string]float64{}} }

// call runs fn as one span of the named layer, with its heap allocation
// count. Replays are serial, so the process-wide malloc delta is fn's own.
func (t *tracer) call(name string, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{name, d, m1.Mallocs - m0.Mallocs})
}

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// total sums the duration and allocations of every span named in names.
func (t *tracer) total(names ...string) (time.Duration, uint64) {
	var d time.Duration
	var a uint64
	for _, s := range t.spans {
		if slices.Contains(names, s.name) {
			d += s.dur
			a += s.allocs
		}
	}
	return d, a
}

// engineMetrics writes the engine-layer metrics, each per replayed
// encode, into res.
func (t *tracer) engineMetrics(res *Result, encodes int) {
	n := float64(max(encodes, 1))
	per := func(name string, names ...string) {
		d, _ := t.total(names...)
		res.set(name, ms(d)/n, "ms")
	}
	allocs := func(name string, names ...string) {
		_, a := t.total(names...)
		res.set(name, float64(a)/n, "count")
	}
	per("kiss.parse_ms", "kiss.parse")
	per("mvmin.minimize_ms", "mvmin.minimize")
	allocs("mvmin.allocs", "mvmin.build", "mvmin.minimize", "mvmin.constraints", "mvmin.encode_pla")
	per("encode.ihybrid_ms", "encode.ihybrid")
	per("encode.iohybrid_ms", "encode.iohybrid")
	per("encode.igreedy_ms", "encode.igreedy")
	allocs("encode.allocs", "encode.ihybrid", "encode.iohybrid", "encode.igreedy")
	per("symbolic.analyze_ms", "symbolic.analyze")
	per("espresso.final_ms", "espresso.final")
	allocs("espresso.allocs", "espresso.final")
	per("verify.check_ms", "verify.check")
	for _, c := range []string{"kiss.rows", "mvmin.cover_cubes", "mvmin.constraints", "encode.work", "symbolic.oc_edges", "espresso.final_cubes"} {
		res.set(c, t.counts[c]/n, "count")
	}
	res.set("encode.gave_up", t.counts["encode.gave_up"], "count")
	if w := t.counts["wsat"] + t.counts["wunsat"]; w > 0 {
		res.set("encode.wsat_share", t.counts["wsat"]/w, "ratio")
	}
}

// replayed is the outcome of one layer-by-layer replay.
type replayed struct {
	alg         nova.Algorithm // the candidate Best picked, else the algorithm
	asg         encoding.Assignment
	cubes, area int
}

// bestRoster is Best's candidate order; ties in area go to the earliest.
var bestRoster = []nova.Algorithm{nova.IHybrid, nova.IGreedy, nova.IOHybrid}

// replay runs alg's pipeline on f one exported layer call at a time, the
// way EncodeContext composes them, recording a span around each call.
// Best runs its candidates one after the other.
func replay(t *tracer, f *kiss.FSM, alg nova.Algorithm, seed int64) (replayed, error) {
	if len(f.SymOuts) > 0 {
		return replayed{}, fmt.Errorf("replay: symbolic outputs are not replayed")
	}
	hyb := encode.HybridOptions{Seed: seed}
	var r encode.Result
	var symCons [][]constraint.Constraint
	switch alg {
	case nova.Best, "":
		var best replayed
		for i, a := range bestRoster {
			c, err := replay(t, f, a, seed)
			if err != nil {
				return c, err
			}
			if i == 0 || c.area < best.area {
				best = c
			}
		}
		return best, nil
	case nova.IHybrid, nova.IGreedy:
		var p *mvmin.Problem
		var err error
		t.call("mvmin.build", func() { p, err = mvmin.Build(f) })
		if err != nil {
			return replayed{}, err
		}
		var min *cube.Cover
		t.call("mvmin.minimize", func() { min = p.Minimize(espresso.Options{}) })
		var cs mvmin.ConstraintSets
		t.call("mvmin.constraints", func() { cs = p.Constraints(min) })
		t.add("mvmin.cover_cubes", float64(min.Len()))
		t.add("mvmin.constraints", float64(len(cs.States)))
		t.call("encode."+string(alg), func() {
			if alg == nova.IGreedy {
				r = encode.IGreedy(f.NumStates(), cs.States, 0)
			} else {
				r = encode.IHybrid(f.NumStates(), cs.States, 0, hyb)
			}
		})
		symCons = cs.SymIns
	case nova.IOHybrid:
		var out *symbolic.Output
		var err error
		t.call("symbolic.analyze", func() { out, err = symbolic.Analyze(f, symbolic.Options{}) })
		if err != nil {
			return replayed{}, err
		}
		t.add("symbolic.oc_edges", float64(len(out.Graph)))
		t.call("encode.iohybrid", func() { r = encode.IOHybrid(out.Problem, 0, hyb) })
		symCons = out.SymIns
	default:
		return replayed{}, fmt.Errorf("replay: algorithm %q is not replayed", alg)
	}
	t.add("encode.work", float64(r.Work))
	if r.GaveUp {
		t.add("encode.gave_up", 1)
	}
	rep := replayed{alg: alg}
	rep.asg.States = r.Enc
	for vi, cs := range symCons {
		n := len(f.SymIns[vi].Values)
		var sr encode.Result
		t.call("encode."+string(alg), func() {
			if alg == nova.IGreedy {
				sr = encode.IGreedy(n, cs, 0)
			} else {
				sr = encode.IHybrid(n, cs, 0, hyb)
			}
		})
		rep.asg.SymIns = append(rep.asg.SymIns, sr.Enc)
	}
	var e *mvmin.Encoded
	var err error
	t.call("mvmin.encode_pla", func() { e, err = mvmin.EncodePLA(f, rep.asg) })
	if err != nil {
		return replayed{}, err
	}
	var fin *cube.Cover
	t.call("espresso.final", func() { fin = e.Minimize(espresso.Options{}) })
	rep.cubes = fin.Len()
	rep.area = kiss.Area(f.NI+rep.asg.InputBits(), rep.asg.States.Bits, f.NO+rep.asg.OutputBits(), rep.cubes)
	t.add("espresso.final_cubes", float64(rep.cubes))
	t.add("wsat", float64(r.WSat))
	t.add("wunsat", float64(r.WUnsat))
	return rep, nil
}

// sameEncoding reports whether two assignments give every symbol the same
// code.
func sameEncoding(a, b encoding.Assignment) bool {
	eq := func(x, y encoding.Encoding) bool { return x.Bits == y.Bits && slices.Equal(x.Codes, y.Codes) }
	return eq(a.States, b.States) && slices.EqualFunc(a.SymIns, b.SymIns, eq) && slices.EqualFunc(a.SymOuts, b.SymOuts, eq)
}

// traceCold replays the corpus of a cold workload layer by layer
// and guards the replay: it must reproduce EncodeContext's assignment,
// cubes and area, including Best's pick, on every machine, or the run
// fails. Two child processes give the untraced reference walls, serial
// and at the default Parallelism.
func traceCold(c config, w coldSpec) *Result {
	res := &Result{Correct: true}
	corpus, err := prepare(w, c)
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	serial, err := childWall(c, 1)
	if err != nil {
		res.fail("untraced serial reference: %v", err)
		return res
	}
	parallel, err := childWall(c, 0)
	if err != nil {
		res.fail("untraced parallel reference: %v", err)
		return res
	}

	t := newTracer()
	ctx := context.Background()
	var traced time.Duration
	picks := map[nova.Algorithm]int{}
	for _, m := range corpus {
		res.Attempted++
		t0 := time.Now()
		var f *kiss.FSM
		t.call("kiss.parse", func() { f, err = kiss.ParseString(m.KISS2) })
		if err != nil {
			res.fail("%s: %v", m.Name, err)
			continue
		}
		t.add("kiss.rows", float64(f.NumTerms()))
		rep, err := replay(t, f, w.opt.Algorithm, w.opt.Seed)
		traced += time.Since(t0)
		if err != nil {
			res.fail("%s: replay: %v", m.Name, err)
			continue
		}
		picks[rep.alg]++
		t.call("verify.check", func() { err = verify.EquivalentFSM(f, rep.asg, verify.Options{}) })
		if err != nil {
			res.fail("%s: verify: %v", m.Name, err)
			continue
		}
		got, err := nova.EncodeContext(ctx, f, w.opt)
		if err != nil {
			res.fail("%s: %v", m.Name, err)
			continue
		}
		if !sameEncoding(got.Assignment, rep.asg) || got.Cubes != rep.cubes || got.Area != rep.area {
			res.fail("%s: replay guard: replay (%s) gives area %d cubes %d, EncodeContext area %d cubes %d",
				m.Name, rep.alg, rep.area, rep.cubes, got.Area, got.Cubes)
		}
	}
	fmt.Printf("samples machines=%d picks=%v traced=%.3fs untraced_serial=%.3fs untraced_parallel=%.3fs\n",
		len(corpus), picks, traced.Seconds(), serial, parallel)
	t.engineMetrics(res, len(corpus))
	res.set("sched.best_speedup", serial/parallel, "x")
	res.set("trace.overhead_ms", 1000*(traced.Seconds()-serial)/float64(len(corpus)), "ms")
	finishLayers(res)
	return res
}

// childWall runs this binary's untraced reference in a child process and
// returns the wall it reports, in seconds.
func childWall(c config, parallelism int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--workload", c.workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--walls", strconv.Itoa(parallelism))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	var s float64
	if err := json.Unmarshal(out, &s); err != nil {
		return 0, fmt.Errorf("child output %q: %w", out, err)
	}
	return s, nil
}

// finishLayers fills every per-layer metric the run did not set with 0
// (its layer is off this workload's path) and adds error_rate.
func finishLayers(res *Result) {
	res.set("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	for _, m := range layerMetrics {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, 0, m.unit)
		}
	}
}
