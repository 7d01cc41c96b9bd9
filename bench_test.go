package nova_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablation benches for the design choices
// called out in DESIGN.md and micro-benchmarks of the core algorithms.
//
// The per-table benches regenerate the experiment on a small/fast subset
// of the suite by default so `go test -bench=.` completes in minutes; run
// cmd/novabench for the full-suite tables.

import (
	"context"
	"testing"

	"nova"
	"nova/internal/bench"
	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/espresso"
	"nova/internal/experiments"
	"nova/internal/mvmin"
	"nova/internal/symbolic"
)

// fastSubset keeps the per-iteration cost of the table benches bounded.
var fastSubset = []string{"bbtas", "dk27", "shiftreg", "train11", "ex3", "beecount", "dk15", "lion"}

func runnerOpts() experiments.RunOpts {
	return experiments.RunOpts{Only: fastSubset, Seed: 1}
}

// skipShort keeps `go test -short -bench=.` in the seconds range: the
// experiment regenerations take minutes of CPU, which the short tier
// (pre-commit, CI smoke) does not pay. The full tier (`make bench`,
// nightly) runs everything.
func skipShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy experiment benchmark skipped in -short mode")
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if rows := r.TableI(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableV(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableVI(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.TableVII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureVIII(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.FigureVIII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureIX(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.FigureIX(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigureX(b *testing.B) {
	skipShort(b)
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(runnerOpts())
		if _, err := r.FigureX(); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------- ablations

// BenchmarkAblationWeightOrder measures ihybrid's decreasing-weight
// acceptance order against the reversed order (DESIGN.md §5).
func BenchmarkAblationWeightOrder(b *testing.B) {
	skipShort(b)
	f := bench.Get("ex3")
	totalDesc, totalAsc := 0, 0
	for i := 0; i < b.N; i++ {
		d, a, err := experiments.AblationWeightOrder(f)
		if err != nil {
			b.Fatal(err)
		}
		totalDesc += d
		totalAsc += a
	}
	b.ReportMetric(float64(totalDesc)/float64(b.N), "wsat-desc")
	b.ReportMetric(float64(totalAsc)/float64(b.N), "wsat-asc")
}

// BenchmarkAblationMaxWork sweeps the semiexact max_work bound.
func BenchmarkAblationMaxWork(b *testing.B) {
	skipShort(b)
	f := bench.Get("ex2")
	p, err := mvmin.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	ics := p.Constraints(p.Minimize(espresso.Options{})).States
	for _, work := range []int{500, 5000, 40000} {
		b.Run(itoa(work), func(b *testing.B) {
			sat := 0
			for i := 0; i < b.N; i++ {
				r := encode.IHybrid(f.NumStates(), ics, 0, encode.HybridOptions{MaxWork: work})
				sat += r.WSat
			}
			b.ReportMetric(float64(sat)/float64(b.N), "wsat")
		})
	}
}

// BenchmarkAblationIOVariant compares iohybrid against iovariant (the
// paper reports iohybrid wins; Section 6.2.2).
func BenchmarkAblationIOVariant(b *testing.B) {
	skipShort(b)
	f := bench.Get("train11")
	for _, alg := range []nova.Algorithm{nova.IOHybrid, nova.IOVariant} {
		b.Run(string(alg), func(b *testing.B) {
			area := 0
			for i := 0; i < b.N; i++ {
				res, err := nova.Encode(f, nova.Options{Algorithm: alg})
				if err != nil {
					b.Fatal(err)
				}
				area += res.Area
			}
			b.ReportMetric(float64(area)/float64(b.N), "area")
		})
	}
}

// BenchmarkAblationCodeLength sweeps the code length for ihybrid,
// reproducing the paper's observation that longer codes satisfying more
// constraints do not pay off in area (Table II discussion).
func BenchmarkAblationCodeLength(b *testing.B) {
	skipShort(b)
	f := bench.Get("ex5")
	min := nova.MinLength(f.NumStates())
	for bits := min; bits <= min+2; bits++ {
		b.Run(itoa(bits), func(b *testing.B) {
			area := 0
			for i := 0; i < b.N; i++ {
				res, err := nova.Encode(f, nova.Options{Algorithm: nova.IHybrid, Bits: bits})
				if err != nil {
					b.Fatal(err)
				}
				area += res.Area
			}
			b.ReportMetric(float64(area)/float64(b.N), "area")
		})
	}
}

// BenchmarkAblationSymbolicOrder compares the two next-state selection
// orders of the symbolic minimization loop (step 4 of Section 6.1).
func BenchmarkAblationSymbolicOrder(b *testing.B) {
	skipShort(b)
	f := bench.Get("ex3")
	for _, small := range []bool{false, true} {
		name := "big-first"
		if small {
			name = "small-first"
		}
		b.Run(name, func(b *testing.B) {
			cubes := 0
			for i := 0; i < b.N; i++ {
				out, err := symbolic.Analyze(f, symbolic.Options{SelectSmallFirst: small})
				if err != nil {
					b.Fatal(err)
				}
				cubes += out.FinalCubes
			}
			b.ReportMetric(float64(cubes)/float64(b.N), "finalP-cubes")
		})
	}
}

// ------------------------------------------------- concurrency benchmarks

// BenchmarkEncodeAllBest measures the batch API over the fast subset at
// increasing pool widths; the serial/parallel speedup is only visible on
// multi-core machines, the results stay bit-identical everywhere.
func BenchmarkEncodeAllBest(b *testing.B) {
	skipShort(b)
	var fsms []*nova.FSM
	for _, name := range fastSubset {
		fsms = append(fsms, bench.Get(name))
	}
	for _, par := range []int{1, 4} {
		b.Run("parallelism-"+itoa(par), func(b *testing.B) {
			opt := nova.Options{Algorithm: nova.Best, Seed: 1, Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := nova.EncodeAll(context.Background(), fsms, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeBestParallelism measures a single Best encode (the
// three-candidate fan-out) serially and with a four-worker pool.
func BenchmarkEncodeBestParallelism(b *testing.B) {
	skipShort(b)
	f := bench.Get("bbara")
	for _, par := range []int{1, 4} {
		b.Run("parallelism-"+itoa(par), func(b *testing.B) {
			opt := nova.Options{Algorithm: nova.Best, Seed: 1, Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := nova.Encode(f, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------- micro benches

func BenchmarkMVMinimizePlanet(b *testing.B) {
	skipShort(b)
	f := bench.Get("planet")
	p, err := mvmin.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Minimize(espresso.Options{})
	}
}

// benchSink defeats dead-code elimination in the micro benches.
var benchSink int

// mvProblem builds the symbolic cover of a suite machine for the
// core-algorithm micro benches.
func mvProblem(b *testing.B, name string) *mvmin.Problem {
	b.Helper()
	p, err := mvmin.Build(bench.Get(name))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTautology measures the unate-recursion kernel through the
// question IRREDUNDANT asks for every cube: "does the rest of the cover,
// plus the don't-care set, cover this cube?" — i.e. tautology of the
// cofactored cover. The rest-covers are prebuilt so the timed region is
// the recursion itself. Steady state is memo-hit heavy — the shared
// tautology memo answers repeats.
func BenchmarkTautology(b *testing.B) {
	p := mvProblem(b, "planet")
	on, dc := p.On, p.Dc
	n := len(on.Cubes)
	if n > 24 {
		n = 24
	}
	rests := make([]*cube.Cover, n)
	for j := 0; j < n; j++ {
		rest := cube.NewCover(p.S)
		for k, c := range on.Cubes {
			if k != j {
				rest.Add(c)
			}
		}
		for _, c := range dc.Cubes {
			rest.Add(c)
		}
		rests[j] = rest
	}
	b.ReportAllocs()
	a := cube.GetArena(p.S)
	defer cube.PutArena(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		covered := 0
		for j := 0; j < n; j++ {
			if rests[j].CoversCubeWith(a, on.Cubes[j]) {
				covered++
			}
		}
		benchSink = covered
	}
}

// BenchmarkComplement measures complementation of a real symbolic cover
// (the operation mvmin.Build runs to derive the global don't-care set).
// Complement results are not memoized, so this is a clean
// recursion-throughput measurement.
func BenchmarkComplement(b *testing.B) {
	p := mvProblem(b, "keyb")
	b.ReportAllocs()
	a := cube.GetArena(p.S)
	defer cube.PutArena(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = p.On.ComplementWith(a).Len()
	}
}

// BenchmarkExpand measures the EXPAND step in isolation on a fresh copy of
// the on-set each iteration (EXPAND mutates its argument).
func BenchmarkExpand(b *testing.B) {
	p := mvProblem(b, "planet")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := p.On.Copy()
		b.StartTimer()
		espresso.Expand(f, p.Dc)
		benchSink = f.Len()
	}
}

// BenchmarkReduce measures the REDUCE step in isolation on planet's MV
// cover after one EXPAND, on a fresh copy each iteration (REDUCE mutates
// its argument).
func BenchmarkReduce(b *testing.B) {
	p := mvProblem(b, "planet")
	expanded := p.On.Copy()
	espresso.Expand(expanded, p.Dc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := expanded.Copy()
		b.StartTimer()
		espresso.Reduce(f, p.Dc)
		benchSink = f.Len()
	}
}

// BenchmarkMinimizeEncoded measures the final ESPRESSO: the whole
// minimization of planet's encoded PLA under one fixed igreedy
// assignment, as every encode ends with.
func BenchmarkMinimizeEncoded(b *testing.B) {
	f := bench.Get("planet")
	res, err := nova.Encode(f, nova.Options{Algorithm: nova.IGreedy, Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := mvmin.EncodePLA(f, res.Assignment)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = e.Minimize(espresso.Options{}).Len()
	}
}

func BenchmarkIGreedyPlanet(b *testing.B) {
	skipShort(b)
	f := bench.Get("planet")
	p, err := mvmin.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	ics := p.Constraints(p.Minimize(espresso.Options{})).States
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode.IGreedy(f.NumStates(), ics, 0)
	}
}

func BenchmarkEncodePipelineBbara(b *testing.B) {
	skipShort(b)
	f := bench.Get("bbara")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nova.Encode(f, nova.Options{Algorithm: nova.IHybrid}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
