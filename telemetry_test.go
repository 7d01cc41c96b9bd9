package nova_test

// Tests of the telemetry subsystem: the no-op tracer must be free on the
// hot paths (the alloc guards below back the "within noise of the PR-2
// numbers" requirement), tracing must not perturb results (determinism
// holds bit-for-bit with a tracer attached), and an emitted trace must be
// valid JSON lines whose root spans account for the run's wall time.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"nova"
	"nova/internal/bench"
	"nova/internal/cube"
	"nova/internal/espresso"
	"nova/internal/mvmin"
	"nova/internal/obs"
)

// TestNoopSpanZeroAlloc pins the core guarantee of the obs API: a Span
// call on a context carrying no tracer allocates nothing, including the
// nil-span attribute and End calls sprinkled through the pipeline.
func TestNoopSpanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are noise under the race detector (its runtime allocates); enforced by the non-race runs")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sctx, sp := obs.Span(ctx, "test.phase")
		sp.SetInt("k", 1)
		sp.SetStr("s", "v")
		sp.End()
		_ = sctx
	})
	if allocs != 0 {
		t.Fatalf("no-op Span allocates %.1f per call, want 0", allocs)
	}
	if m := obs.MetricsFrom(ctx); m != nil {
		t.Fatal("MetricsFrom(plain ctx) != nil")
	}
}

// TestTautologyZeroAllocWithTelemetry replays the BenchmarkTautology
// kernel (the covering questions IRREDUNDANT asks of planet's encoded PLA
// after one EXPAND) through one held arena, and requires the baseline 0
// allocs/op to survive the arena stat counters added for telemetry. No
// verdict is cached, so every counted run does the whole recursion, and
// the questions must reach its splits, as the bench requires.
func TestTautologyZeroAllocWithTelemetry(t *testing.T) {
	s, qs := irredundantQuestions(t)
	a := cube.NewArena(s)
	requireSplits(t, a, qs)
	if raceEnabled {
		t.Skip("alloc counts are noise under the race detector (its runtime allocates); enforced by the non-race runs")
	}
	allocs := testing.AllocsPerRun(50, func() {
		benchSink = askAll(a, qs)
	})
	if allocs != 0 {
		t.Fatalf("tautology kernel allocates %.1f per run of %d questions, want 0", allocs, len(qs))
	}
}

// TestMinimizeAllocParityWithoutTracer runs the full ESPRESSO loop (the
// BenchmarkExpand/BenchmarkTableII hot path) through espresso.Minimize,
// the entry point production calls, twice — once with a nil Ctx and once
// with a plain context carrying no tracer — and requires the allocation
// counts to be identical: the instrumented path must cost nothing when
// tracing is off.
func TestMinimizeAllocParityWithoutTracer(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are noise under the race detector (its runtime allocates); enforced by the non-race runs")
	}
	p, err := mvmin.Build(bench.Get("planet"))
	if err != nil {
		t.Fatal(err)
	}
	// Every call makes and drops its own arena, so each counted run pays
	// for the whole recursion and for its scratch, the same with and
	// without a context. The minimum of three measurements discards stray
	// runtime allocations (GC bookkeeping) that land in individual runs.
	measure := func(opt espresso.Options) float64 {
		run := func() { espresso.Minimize(p.On, p.Dc, opt) }
		best := testing.AllocsPerRun(5, run)
		for i := 0; i < 2; i++ {
			if v := testing.AllocsPerRun(5, run); v < best {
				best = v
			}
		}
		return best
	}
	bare := measure(espresso.Options{})
	withCtx := measure(espresso.Options{Ctx: context.Background()})
	if bare != withCtx {
		t.Fatalf("allocs/run with plain ctx = %.1f, without = %.1f; instrumentation must be free when disabled", withCtx, bare)
	}
}

// TestSerialParallelIdenticalWithTracing re-runs the PR-1 determinism
// guarantee with a tracer attached to both sides: tracing must never
// change a Result.
func TestSerialParallelIdenticalWithTracing(t *testing.T) {
	for _, name := range []string{"bbtas", "train11", "beecount"} {
		t.Run(name, func(t *testing.T) {
			f := bench.Get(name)
			opt := nova.Options{Algorithm: nova.Best, Seed: 7, Parallelism: 1, Tracer: nova.NewTracer()}
			serial, err := nova.Encode(f, opt)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			opt.Parallelism = 4
			opt.Tracer = nova.NewTracer()
			par, err := nova.Encode(f, opt)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if serial.Telemetry == nil || par.Telemetry == nil {
				t.Fatal("Result.Telemetry not populated with a tracer set")
			}
			// The snapshots legitimately differ (timings, scheduling);
			// everything else must be bit-identical.
			serial.Telemetry, par.Telemetry = nil, nil
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("parallel result differs from serial with tracing on:\nserial:   %+v\nparallel: %+v", serial, par)
			}
		})
	}
}

// TestTelemetrySnapshotContents checks the snapshot attached to a traced
// Result: phases and counters present, and absent entirely by default.
func TestTelemetrySnapshotContents(t *testing.T) {
	f := bench.Get("bbara")
	plain, err := nova.Encode(f, nova.Options{Algorithm: nova.IHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("Result.Telemetry != nil without a tracer")
	}

	res, err := nova.Encode(f, nova.Options{Algorithm: nova.IHybrid, Tracer: nova.NewTracer()})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("Result.Telemetry == nil with a tracer set")
	}
	for _, phase := range []string{"nova.encode", "espresso.minimize", "search.ihybrid", "mvmin.minimize"} {
		if snap.Phase(phase) == nil {
			t.Errorf("snapshot missing phase %q", phase)
		}
	}
	for _, key := range []string{"espresso.iterations", "tautology.calls", "arena.cubes_alloc", "search.work", "algo.ok.ihybrid"} {
		if snap.Counters[key] == 0 {
			t.Errorf("counter %q is zero", key)
		}
	}
}

// historyFSM is encoded by TestMinimizerTalliesIgnoreProcessHistory
// alone, so no earlier test in the process has minimized its covers.
const historyFSM = `
.i 2
.o 2
.s 8
.r h0
00 h0 h2 00
01 h0 h7 00
1- h0 h5 00
00 h1 h4 01
01 h1 h2 10
1- h1 h0 11
00 h2 h6 00
01 h2 h1 01
1- h2 h5 10
00 h3 h6 10
01 h3 h4 10
1- h3 h6 01
00 h4 h0 11
01 h4 h4 11
1- h4 h2 11
00 h5 h6 01
01 h5 h6 10
1- h5 h1 11
00 h6 h1 11
01 h6 h0 00
1- h6 h6 00
00 h7 h7 00
01 h7 h0 11
1- h7 h2 11
.e
`

// historyKeys are the counters TestMinimizerTalliesIgnoreProcessHistory
// compares.
var historyKeys = [...]string{"tautology.calls", "espresso.iterations", "arena.cubes_alloc", "arena.cubes_reused"}

// historyTallies keeps the tallies of the first execution of
// TestMinimizerTalliesIgnoreProcessHistory in this process; under
// -count=2 the second execution runs in a process the first one warmed,
// and must read them again.
var historyTallies map[string][len(historyKeys)]int64

// TestMinimizerTalliesIgnoreProcessHistory pins that the minimizer's work
// on a machine depends on the machine alone: the historyKeys tallies of
// igreedy and of Best at Parallelism 1 and 2 are the same on a machine no
// earlier run has seen, again after two suite machines were encoded, and
// in every later count of the test. Scratch arenas that outlived a call
// would break it: a warm arena allocates fewer cubes than a fresh one.
func TestMinimizerTalliesIgnoreProcessHistory(t *testing.T) {
	f, err := nova.ParseKISSString(historyFSM)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		opt  nova.Options
	}{
		{"igreedy", nova.Options{Algorithm: nova.IGreedy, Parallelism: 1}},
		{"best-p1", nova.Options{Algorithm: nova.Best, Parallelism: 1}},
		{"best-p2", nova.Options{Algorithm: nova.Best, Parallelism: 2}},
	}
	tallies := func(opt nova.Options) (out [len(historyKeys)]int64) {
		t.Helper()
		opt.Tracer = nova.NewTracer()
		res, err := nova.Encode(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, key := range historyKeys {
			out[i] = res.Telemetry.Counters[key]
		}
		return out
	}
	first := map[string][len(historyKeys)]int64{}
	for _, r := range runs {
		first[r.name] = tallies(r.opt)
	}
	if first["igreedy"][0] == 0 || first["best-p1"][1] == 0 {
		t.Fatalf("tallies %v: the machine never reached the minimizer", first)
	}
	if first["best-p1"] != first["best-p2"] {
		t.Errorf("Best %v = %v at Parallelism 1, %v at 2", historyKeys, first["best-p1"], first["best-p2"])
	}
	for _, name := range []string{"bbtas", "dk27"} {
		if _, err := nova.Encode(bench.Get(name), nova.Options{Algorithm: nova.Best}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range runs {
		if got := tallies(r.opt); got != first[r.name] {
			t.Errorf("%s %v = %v after two suite machines, %v before", r.name, historyKeys, got, first[r.name])
		}
	}
	if historyTallies == nil {
		historyTallies = first
		return
	}
	for _, r := range runs {
		if first[r.name] != historyTallies[r.name] {
			t.Errorf("%s %v = %v in this count, %v in the first", r.name, historyKeys, first[r.name], historyTallies[r.name])
		}
	}
}

// TestTraceJSONLinesAndWallCoverage streams a trace, requires every line
// to parse as JSON with the tracer's label, and requires the root spans
// to account for at least 90% of the tracer's wall time (the acceptance
// bar for per-phase attribution).
func TestTraceJSONLinesAndWallCoverage(t *testing.T) {
	var buf bytes.Buffer
	tracer := nova.NewTracer()
	tracer.SetLabel("bbara")
	tracer.SetWriter(&buf)
	res, err := nova.EncodeContext(context.Background(), bench.Get("bbara"),
		nova.Options{Algorithm: nova.Best, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}

	spans, roots := 0, 0
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		if rec["trace"] != "bbara" {
			t.Fatalf("line missing trace label: %q", line)
		}
		if rec["type"] == "span" {
			spans++
			if _, nested := rec["parent"]; !nested {
				roots++
			}
		}
	}
	if spans == 0 {
		t.Fatal("trace stream contains no spans")
	}
	if roots == 0 {
		t.Fatal("trace stream contains no root span")
	}

	snap := res.Telemetry
	if snap.Spans != spans {
		t.Fatalf("snapshot has %d spans, stream has %d", snap.Spans, spans)
	}
	if snap.Root <= 0 || snap.Wall <= 0 {
		t.Fatalf("degenerate snapshot: root %v, wall %v", snap.Root, snap.Wall)
	}
	if cov := float64(snap.Root) / float64(snap.Wall); cov < 0.9 || cov > 1.1 {
		t.Fatalf("root spans cover %.1f%% of wall time %v, want within 10%%", 100*cov, snap.Wall)
	}
}
