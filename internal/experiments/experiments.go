// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII): Tables I-VII and the plot series of Tables
// VIII-X. Each experiment takes the benchmark suite, runs the relevant
// encoders through the public nova API, and returns printable rows.
// Results are cached per (machine, algorithm, bits), so combined tables
// reuse work; the whole harness is deterministic.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"nova"
	"nova/internal/baseline"
	"nova/internal/bench"
	"nova/internal/constraint"
	"nova/internal/encode"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mlopt"
	"nova/internal/mvmin"
	"nova/internal/obs"
	"nova/internal/symbolic"
)

// RunOpts configures a harness run.
type RunOpts struct {
	// Ctx, when non-nil, cancels in-flight encodes between tables and
	// inside the searches; canceled runs surface the error of the
	// offending machine.
	Ctx context.Context
	// SkipHuge drops the time-intensive machines (scf, tbk).
	SkipHuge bool
	// Only restricts the run to the named machines (nil = all).
	Only []string
	// Seed drives the random baselines.
	Seed int64
	// FastMinimize uses the faster single-pass espresso loop.
	FastMinimize bool
	// ExactBudget bounds iexact's face-assignment attempts per machine.
	ExactBudget int
	// Parallel bounds worker goroutines (0 = GOMAXPROCS).
	Parallel int
	// Observe attaches a per-machine telemetry tracer to every encode, so
	// PhaseTable can report the espresso/search/symbolic time breakdown.
	Observe bool
	// TraceWriter, when non-nil (implies observation), additionally
	// streams every span of every machine as JSON lines, tagged with the
	// machine name in the "trace" field.
	TraceWriter io.Writer
}

func (o RunOpts) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o RunOpts) entries() []bench.Entry {
	var out []bench.Entry
	want := map[string]bool{}
	for _, n := range o.Only {
		want[n] = true
	}
	for _, e := range bench.Suite() {
		if o.SkipHuge && e.Huge {
			continue
		}
		if len(want) > 0 && !want[e.Name] {
			continue
		}
		out = append(out, e)
	}
	return out
}

func (o RunOpts) tableI(list []bench.Entry) []bench.Entry {
	extras := map[string]bool{"lion": true, "lion9": true, "modulo12": true, "tav": true, "do1": true}
	var out []bench.Entry
	for _, e := range list {
		if !extras[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// Runner caches per-machine results across tables.
type Runner struct {
	Opts RunOpts
	mu   sync.Mutex
	memo map[string]*nova.Result
	// gaveUp marks memo keys whose run ended in ErrGaveUp: the memoized
	// Result is the partial one and the tables render a "-" entry.
	gaveUp map[string]bool

	// Per-machine tracers (observing runs only), plus the shared
	// line-locked trace writer they stream to.
	tracers map[string]*nova.Tracer
	traceW  io.Writer
}

// NewRunner returns a caching harness runner.
func NewRunner(opts RunOpts) *Runner {
	r := &Runner{Opts: opts, memo: map[string]*nova.Result{}, gaveUp: map[string]bool{}}
	if opts.Observe || opts.TraceWriter != nil {
		r.tracers = map[string]*nova.Tracer{}
		if opts.TraceWriter != nil {
			r.traceW = obs.LockedWriter(opts.TraceWriter)
		}
	}
	return r
}

// observing reports whether this runner attaches tracers to its encodes.
func (r *Runner) observing() bool { return r.tracers != nil }

// tracerFor returns (creating on first use) the tracer of one machine.
func (r *Runner) tracerFor(name string) *nova.Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tracers[name]; ok {
		return t
	}
	t := nova.NewTracer()
	t.SetLabel(name)
	if r.traceW != nil {
		t.SetWriter(r.traceW)
	}
	r.tracers[name] = t
	return t
}

func (o RunOpts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o RunOpts) novaOptions(alg nova.Algorithm, bits int) nova.Options {
	return nova.Options{
		Algorithm:    alg,
		Bits:         bits,
		Seed:         o.Seed,
		FastMinimize: o.FastMinimize,
		MaxWork:      exactWorkFor(alg, o),
		// The harness already fans out across machines (forEach), so
		// each encode runs serially to keep the total worker count at
		// RunOpts.Parallel.
		Parallelism: 1,
	}
}

// Run returns the (cached) result of one algorithm on one machine. An
// iexact give-up is not an error here: the partial result is cached and
// returned (with the give-up recorded in the runner) so the tables can
// render their "-" entries.
func (r *Runner) Run(f *kiss.FSM, alg nova.Algorithm, bits int) (*nova.Result, error) {
	k := fmt.Sprintf("%s/%s/%d", f.Name, alg, bits)
	r.mu.Lock()
	if res, ok := r.memo[k]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()
	opt := r.Opts.novaOptions(alg, bits)
	if r.observing() {
		opt.Tracer = r.tracerFor(f.Name)
	}
	res, err := nova.EncodeContext(r.Opts.ctx(), f, opt)
	if err != nil && !errors.Is(err, nova.ErrGaveUp) {
		return nil, err
	}
	r.mu.Lock()
	r.memo[k] = res
	if err != nil {
		r.gaveUp[k] = true
	}
	r.mu.Unlock()
	return res, nil
}

// gaveUpAt reports whether the memoized run of (machine, algorithm,
// bits) ended in ErrGaveUp.
func (r *Runner) gaveUpAt(name string, alg nova.Algorithm, bits int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gaveUp[fmt.Sprintf("%s/%s/%d", name, alg, bits)]
}

// Prewarm encodes every benchmark machine of the run with each of the
// given algorithms, machines in parallel through Run, filling the cache
// so the table builders afterwards only read memoized results. A machine
// that fails (say, an unencodable one) is left to the table that needs
// it; only cancellation aborts the prewarm.
func (r *Runner) Prewarm(algs ...nova.Algorithm) error {
	entries := r.Opts.entries()
	for _, alg := range algs {
		if _, err := forEach(entries, r.Opts.workers(), func(e bench.Entry) (struct{}, error) {
			if _, err := r.Run(e.F, alg, 0); errors.Is(err, nova.ErrCanceled) {
				return struct{}{}, fmt.Errorf("%s: %w", e.Name, err)
			}
			return struct{}{}, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func exactWorkFor(alg nova.Algorithm, o RunOpts) int {
	if alg == nova.IExact && o.ExactBudget > 0 {
		return o.ExactBudget
	}
	return 0
}

// forEach runs fn over the entries with bounded parallelism, preserving
// order in the output slice; the first error aborts.
func forEach[T any](list []bench.Entry, workers int, fn func(bench.Entry) (T, error)) ([]T, error) {
	out := make([]T, len(list))
	errs := make([]error, len(list))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, e := range list {
		wg.Add(1)
		go func(i int, e bench.Entry) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = fn(e)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- Table I

// StatRow is one row of Table I.
type StatRow struct {
	Name                                   string
	Inputs, SymIns, Outputs, States, Terms int
}

// TableI returns the benchmark statistics.
func (r *Runner) TableI() []StatRow {
	var rows []StatRow
	for _, e := range r.Opts.tableI(r.Opts.entries()) {
		st := e.F.Stats()
		rows = append(rows, StatRow{e.Name, st.Inputs, st.SymIns, st.Outputs, st.States, st.Terms})
	}
	return rows
}

// FormatTableI renders Table I.
func FormatTableI(rows []StatRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — STATISTICS OF BENCHMARK EXAMPLES\n")
	fmt.Fprintf(&b, "%-10s %6s %7s %8s %7s %7s\n", "EXAMPLE", "#in", "#symin", "#out", "#states", "#terms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %7d %8d %7d %7d\n", r.Name, r.Inputs, r.SymIns, r.Outputs, r.States, r.Terms)
	}
	return b.String()
}

// --------------------------------------------------------------- Table II

// Cell is one algorithm's outcome on one machine.
type Cell struct {
	Bits, Cubes, Area int
	GaveUp            bool
}

func cell(res *nova.Result) Cell {
	return Cell{Bits: res.Bits, Cubes: res.Cubes, Area: res.Area}
}

// RowII is one row of Table II.
type RowII struct {
	Name                     string
	IExact, IHybrid, IGreedy Cell
	OneHotCubes              int
}

// TableII compares iexact, ihybrid and igreedy, with the 1-hot product-term
// count as reference.
func (r *Runner) TableII() ([]RowII, error) {
	return forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RowII, error) {
		row := RowII{Name: e.Name}
		ex, err := r.Run(e.F, nova.IExact, 0)
		if err != nil {
			return row, err
		}
		row.IExact = cell(ex)
		row.IExact.GaveUp = r.gaveUpAt(e.F.Name, nova.IExact, 0)
		hy, err := r.Run(e.F, nova.IHybrid, 0)
		if err != nil {
			return row, err
		}
		row.IHybrid = cell(hy)
		gr, err := r.Run(e.F, nova.IGreedy, 0)
		if err != nil {
			return row, err
		}
		row.IGreedy = cell(gr)
		row.OneHotCubes, err = r.oneHotCubes(e.F)
		if err != nil {
			return row, err
		}
		return row, nil
	})
}

// oneHotCubes returns the product-term cardinality of the 1-hot encoding:
// the cardinality of the minimized multiple-valued cover, which equals the
// minimized 1-hot PLA's and is computable for any state count (the 121-
// state scf exceeds the 64-bit code words an explicit 1-hot would need).
func (r *Runner) oneHotCubes(f *kiss.FSM) (int, error) {
	k := f.Name + "/onehot-cubes"
	r.mu.Lock()
	if res, ok := r.memo[k]; ok {
		r.mu.Unlock()
		return res.Cubes, nil
	}
	r.mu.Unlock()
	p, err := mvmin.Build(f)
	if err != nil {
		return 0, err
	}
	cubes := p.OneHotCubes(espresso.Options{SkipReduce: r.Opts.FastMinimize})
	r.mu.Lock()
	r.memo[k] = &nova.Result{Cubes: cubes}
	r.mu.Unlock()
	return cubes, nil
}

// FormatTableII renders Table II.
func FormatTableII(rows []RowII) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II — COMPARISONS OF iexact, ihybrid, igreedy\n")
	fmt.Fprintf(&b, "%-10s | %5s %6s %6s | %5s %6s %6s | %5s %6s %6s | %6s\n",
		"EXAMPLE", "bits", "cubes", "area", "bits", "cubes", "area", "bits", "cubes", "area", "1-hot")
	fmt.Fprintf(&b, "%-10s | %19s | %19s | %19s |\n", "", "iexact", "ihybrid", "igreedy")
	for _, r := range rows {
		ex := fmt.Sprintf("%5d %6d %6d", r.IExact.Bits, r.IExact.Cubes, r.IExact.Area)
		if r.IExact.GaveUp {
			ex = fmt.Sprintf("%5s %6s %6s", "-", "-", "-")
		}
		fmt.Fprintf(&b, "%-10s | %s | %5d %6d %6d | %5d %6d %6d | %6d\n",
			r.Name, ex,
			r.IHybrid.Bits, r.IHybrid.Cubes, r.IHybrid.Area,
			r.IGreedy.Bits, r.IGreedy.Cubes, r.IGreedy.Area,
			r.OneHotCubes)
	}
	return b.String()
}

// -------------------------------------------------------------- Table III

// RowIII is one row of Table III.
type RowIII struct {
	Name           string
	NovaIH         Cell // best of ihybrid/igreedy
	KISS           Cell
	RandomBestArea int
	RandomAvgArea  int
}

// TableIII compares best-of(ihybrid, igreedy) with KISS and random
// assignments.
func (r *Runner) TableIII() ([]RowIII, error) {
	return forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RowIII, error) {
		row := RowIII{Name: e.Name}
		hy, err := r.Run(e.F, nova.IHybrid, 0)
		if err != nil {
			return row, err
		}
		gr, err := r.Run(e.F, nova.IGreedy, 0)
		if err != nil {
			return row, err
		}
		row.NovaIH = cell(hy)
		if gr.Area < hy.Area {
			row.NovaIH = cell(gr)
		}
		ki, err := r.Run(e.F, nova.KISS, 0)
		if err != nil {
			return row, err
		}
		row.KISS = cell(ki)
		rd, err := r.Run(e.F, nova.Random, 0)
		if err != nil {
			return row, err
		}
		row.RandomBestArea = rd.Area
		row.RandomAvgArea = rd.RandomAvgArea
		return row, nil
	})
}

// FormatTableIII renders Table III with the paper's TOTAL/% footer.
func FormatTableIII(rows []RowIII) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III — COMPARISONS OF ihybrid/igreedy WITH KISS AND RANDOM\n")
	fmt.Fprintf(&b, "%-10s | %5s %6s %6s | %5s %6s %6s | %9s %9s\n",
		"EXAMPLE", "bits", "cubes", "area", "bits", "cubes", "area", "rnd-best", "rnd-avg")
	fmt.Fprintf(&b, "%-10s | %19s | %19s |\n", "", "ihybrid/igreedy", "KISS-style")
	tn, tk, tb, ta := 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d %6d %6d | %5d %6d %6d | %9d %9d\n",
			r.Name, r.NovaIH.Bits, r.NovaIH.Cubes, r.NovaIH.Area,
			r.KISS.Bits, r.KISS.Cubes, r.KISS.Area,
			r.RandomBestArea, r.RandomAvgArea)
		tn += r.NovaIH.Area
		tk += r.KISS.Area
		tb += r.RandomBestArea
		ta += r.RandomAvgArea
	}
	fmt.Fprintf(&b, "%-10s | %12s %6d | %12s %6d | %9d %9d\n", "TOTAL", "", tn, "", tk, tb, ta)
	if tb > 0 {
		fmt.Fprintf(&b, "%-10s | %12s %5d%% | %12s %5d%% | %8d%% %8d%%\n", "%", "",
			100*tn/tb, "", 100*tk/tb, 100, 100*ta/tb)
	}
	return b.String()
}

// -------------------------------------------------------------- Table IV

// RowIV is one row of Table IV.
type RowIV struct {
	Name           string
	IOHybrid       Cell
	NovaIH         Cell // best of ihybrid/igreedy
	NovaBest       Cell // best of all NOVA algorithms
	RandomBestArea int
	RandomAvgArea  int
}

// TableIV compares iohybrid, ihybrid/igreedy and best-of-NOVA with random.
func (r *Runner) TableIV() ([]RowIV, error) {
	return forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RowIV, error) {
		row := RowIV{Name: e.Name}
		io, err := r.Run(e.F, nova.IOHybrid, 0)
		if err != nil {
			return row, err
		}
		row.IOHybrid = cell(io)
		hy, err := r.Run(e.F, nova.IHybrid, 0)
		if err != nil {
			return row, err
		}
		gr, err := r.Run(e.F, nova.IGreedy, 0)
		if err != nil {
			return row, err
		}
		row.NovaIH = cell(hy)
		if gr.Area < hy.Area {
			row.NovaIH = cell(gr)
		}
		row.NovaBest = row.NovaIH
		if row.IOHybrid.Area < row.NovaBest.Area {
			row.NovaBest = row.IOHybrid
		}
		rd, err := r.Run(e.F, nova.Random, 0)
		if err != nil {
			return row, err
		}
		row.RandomBestArea = rd.Area
		row.RandomAvgArea = rd.RandomAvgArea
		return row, nil
	})
}

// FormatTableIV renders Table IV.
func FormatTableIV(rows []RowIV) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE IV — COMPARISONS OF iohybrid, ihybrid/igreedy, BEST OF NOVA WITH RANDOM\n")
	fmt.Fprintf(&b, "%-10s | %5s %6s %6s | %5s %6s %6s | %5s %6s %6s | %9s %9s\n",
		"EXAMPLE", "bits", "cubes", "area", "bits", "cubes", "area", "bits", "cubes", "area", "rnd-best", "rnd-avg")
	fmt.Fprintf(&b, "%-10s | %19s | %19s | %19s |\n", "", "iohybrid", "ihybrid/igreedy", "NOVA best")
	tio, tih, tbest, trb, tra := 0, 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d %6d %6d | %5d %6d %6d | %5d %6d %6d | %9d %9d\n",
			r.Name, r.IOHybrid.Bits, r.IOHybrid.Cubes, r.IOHybrid.Area,
			r.NovaIH.Bits, r.NovaIH.Cubes, r.NovaIH.Area,
			r.NovaBest.Bits, r.NovaBest.Cubes, r.NovaBest.Area,
			r.RandomBestArea, r.RandomAvgArea)
		tio += r.IOHybrid.Area
		tih += r.NovaIH.Area
		tbest += r.NovaBest.Area
		trb += r.RandomBestArea
		tra += r.RandomAvgArea
	}
	fmt.Fprintf(&b, "%-10s | %12s %6d | %12s %6d | %12s %6d | %9d %9d\n", "TOTAL", "", tio, "", tih, "", tbest, trb, tra)
	if trb > 0 {
		fmt.Fprintf(&b, "%-10s | %12s %5d%% | %12s %5d%% | %12s %5d%% | %8d%% %8d%%\n", "%", "",
			100*tio/trb, "", 100*tih/trb, "", 100*tbest/trb, 100, 100*tra/trb)
	}
	return b.String()
}

// --------------------------------------------------------------- Table V

// RowV is one row of Table V.
type RowV struct {
	Name     string
	IOHybrid Cell
	Cream    Cell
}

// TableV compares iohybrid with the Cappuccino/Cream-style baseline on the
// Table V subset.
func (r *Runner) TableV() ([]RowV, error) {
	var list []bench.Entry
	for _, e := range r.Opts.entries() {
		if e.TableV {
			list = append(list, e)
		}
	}
	return forEach(list, r.Opts.workers(), func(e bench.Entry) (RowV, error) {
		row := RowV{Name: e.Name}
		io, err := r.Run(e.F, nova.IOHybrid, 0)
		if err != nil {
			return row, err
		}
		row.IOHybrid = cell(io)
		cr, err := creamResult(e.F, r.Opts)
		if err != nil {
			return row, err
		}
		row.Cream = cr
		return row, nil
	})
}

// FormatTableV renders Table V.
func FormatTableV(rows []RowV) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE V — COMPARISONS OF iohybrid WITH CAPPUCCINO/CREAM (stand-in)\n")
	fmt.Fprintf(&b, "%-10s | %5s %6s %6s | %5s %6s %6s\n",
		"EXAMPLE", "bits", "cubes", "area", "bits", "cubes", "area")
	fmt.Fprintf(&b, "%-10s | %19s | %19s\n", "", "iohybrid", "cream-style")
	ti, tc := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s | %5d %6d %6d | %5d %6d %6d\n",
			r.Name, r.IOHybrid.Bits, r.IOHybrid.Cubes, r.IOHybrid.Area,
			r.Cream.Bits, r.Cream.Cubes, r.Cream.Area)
		ti += r.IOHybrid.Area
		tc += r.Cream.Area
	}
	fmt.Fprintf(&b, "%-10s | %12s %6d | %12s %6d\n", "TOTAL", "", ti, "", tc)
	if tc > 0 {
		fmt.Fprintf(&b, "%-10s | %12s %5d%% | %12s %5d%%\n", "%", "", 100*ti/tc, "", 100)
	}
	return b.String()
}

// --------------------------------------------------------------- Table VI

// RowVI is one row of Table VI: ihybrid statistics.
type RowVI struct {
	Name         string
	WSat, WUnsat int
	CLength      int // length at which ihybrid satisfies every constraint
	ExCLength    int // iexact's minimum length (-1 when it gave up)
	Millis       int64
}

// TableVI reports the ihybrid statistics (satisfied/unsatisfied constraint
// weight at minimum length, full-satisfaction length, exact length, time).
func (r *Runner) TableVI() ([]RowVI, error) {
	return forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RowVI, error) {
		row := RowVI{Name: e.Name}
		p, err := mvmin.Build(e.F)
		if err != nil {
			return row, err
		}
		cs := p.Constraints(p.Minimize(espresso.Options{SkipReduce: r.Opts.FastMinimize}))
		// Time a fresh minimum-length ihybrid encoding run (the paper's
		// "time" column measures the encoding step).
		start := time.Now()
		hy := encode.IHybrid(e.F.NumStates(), cs.States, 0, encode.HybridOptions{Seed: r.Opts.Seed})
		row.Millis = time.Since(start).Milliseconds()
		row.WSat, row.WUnsat = hy.WSat, hy.WUnsat
		// Full satisfaction length: ihybrid with #bits = #states.
		full := encode.IHybrid(e.F.NumStates(), cs.States, e.F.NumStates(), encode.HybridOptions{Seed: r.Opts.Seed})
		row.CLength = full.Enc.Bits
		ex, err := r.Run(e.F, nova.IExact, 0)
		if err != nil {
			return row, err
		}
		if r.gaveUpAt(e.F.Name, nova.IExact, 0) {
			row.ExCLength = -1
		} else {
			row.ExCLength = ex.Assignment.States.Bits
		}
		return row, nil
	})
}

// FormatTableVI renders Table VI.
func FormatTableVI(rows []RowVI) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VI — STATISTICS OF ihybrid\n")
	fmt.Fprintf(&b, "%-10s %6s %7s %8s %11s %9s\n", "EXAMPLE", "wsat", "wunsat", "clength", "ex-clength", "time(ms)")
	for _, r := range rows {
		ex := fmt.Sprintf("%d", r.ExCLength)
		if r.ExCLength < 0 {
			ex = "?"
		}
		fmt.Fprintf(&b, "%-10s %6d %7d %8d %11s %9d\n", r.Name, r.WSat, r.WUnsat, r.CLength, ex, r.Millis)
	}
	return b.String()
}

// -------------------------------------------------------------- Table VII

// RowVII is one row of Table VII.
type RowVII struct {
	Name         string
	MustangCubes int // best (minimum) over -p/-n/-pt/-nt
	NovaCubes    int // best NOVA two-level result at minimum length
	MustangLits  int // best multilevel literals over the four variants
	NovaLits     int // literals of the best NOVA two-level result
	RandomLits   int // literals of the best-area random assignment
	BestVariant  string
}

// TableVII compares MUSTANG and NOVA in two-level cubes and multilevel
// factored literals, with the random baseline's literals.
func (r *Runner) TableVII() ([]RowVII, error) {
	return forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RowVII, error) {
		row := RowVII{Name: e.Name, MustangCubes: 1 << 30, MustangLits: 1 << 30}
		variants := []nova.Algorithm{nova.MustangP, nova.MustangN, nova.MustangPT, nova.MustangNT}
		for _, v := range variants {
			res, err := r.Run(e.F, v, 0)
			if err != nil {
				return row, err
			}
			if res.Cubes < row.MustangCubes {
				row.MustangCubes = res.Cubes
				row.BestVariant = string(v)
			}
			lits, err := literalsOf(e.F, res, r.Opts)
			if err != nil {
				return row, err
			}
			if lits < row.MustangLits {
				row.MustangLits = lits
			}
		}
		best, err := r.Run(e.F, nova.Best, 0)
		if err != nil {
			return row, err
		}
		row.NovaCubes = best.Cubes
		row.NovaLits, err = literalsOf(e.F, best, r.Opts)
		if err != nil {
			return row, err
		}
		rd, err := r.Run(e.F, nova.Random, 0)
		if err != nil {
			return row, err
		}
		row.RandomLits, err = literalsOf(e.F, rd, r.Opts)
		if err != nil {
			return row, err
		}
		return row, nil
	})
}

// FormatTableVII renders Table VII with the TOTAL/% footer.
func FormatTableVII(rows []RowVII) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE VII — TWO-LEVEL AND MULTILEVEL RESULTS OF MUSTANG AND NOVA\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s\n", "EXAMPLE", "MUS#cube", "NOVA#cube", "MUS#lit", "NOVA#lit", "RND#lit")
	tmc, tnc, tml, tnl, trl := 0, 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9d %9d %9d %9d %9d\n",
			r.Name, r.MustangCubes, r.NovaCubes, r.MustangLits, r.NovaLits, r.RandomLits)
		tmc += r.MustangCubes
		tnc += r.NovaCubes
		tml += r.MustangLits
		tnl += r.NovaLits
		trl += r.RandomLits
	}
	fmt.Fprintf(&b, "%-10s %9d %9d %9d %9d %9d\n", "TOTAL", tmc, tnc, tml, tnl, trl)
	if tnc > 0 && tnl > 0 {
		fmt.Fprintf(&b, "%-10s %8d%% %8d%% %8d%% %8d%% %8d%%\n", "%",
			100*tmc/tnc, 100, 100*tml/tnl, 100, 100*trl/tnl)
	}
	return b.String()
}

// ------------------------------------------------------ Figures VIII/IX/X

// RatioPoint is one x-axis point of the plot tables: ratios over the best
// NOVA area, examples ordered by increasing state count.
type RatioPoint struct {
	Name   string
	States int
	Ratios map[string]float64
}

// FigureVIII returns the KISS/NOVA and best-random/NOVA area ratio series.
func (r *Runner) FigureVIII() ([]RatioPoint, error) {
	return r.ratioSeries(func(e bench.Entry, novaArea int) (map[string]float64, error) {
		ki, err := r.Run(e.F, nova.KISS, 0)
		if err != nil {
			return nil, err
		}
		rd, err := r.Run(e.F, nova.Random, 0)
		if err != nil {
			return nil, err
		}
		return map[string]float64{
			"KISS/NOVA":   float64(ki.Area) / float64(novaArea),
			"Random/NOVA": float64(rd.Area) / float64(novaArea),
		}, nil
	})
}

// FigureIX returns the ihybrid/NOVA and iohybrid/NOVA area ratio series.
func (r *Runner) FigureIX() ([]RatioPoint, error) {
	return r.ratioSeries(func(e bench.Entry, novaArea int) (map[string]float64, error) {
		hy, err := r.Run(e.F, nova.IHybrid, 0)
		if err != nil {
			return nil, err
		}
		gr, err := r.Run(e.F, nova.IGreedy, 0)
		if err != nil {
			return nil, err
		}
		io, err := r.Run(e.F, nova.IOHybrid, 0)
		if err != nil {
			return nil, err
		}
		ih := hy.Area
		if gr.Area < ih {
			ih = gr.Area
		}
		return map[string]float64{
			"Ihybrid/Nova":  float64(ih) / float64(novaArea),
			"Iohybrid/Nova": float64(io.Area) / float64(novaArea),
		}, nil
	})
}

// FigureX returns the MUSTANG/NOVA cube and literal ratio series.
func (r *Runner) FigureX() ([]RatioPoint, error) {
	rows, err := r.TableVII()
	if err != nil {
		return nil, err
	}
	byName := map[string]RowVII{}
	for _, row := range rows {
		byName[row.Name] = row
	}
	var pts []RatioPoint
	for _, e := range r.Opts.tableI(r.Opts.entries()) {
		row, ok := byName[e.Name]
		if !ok || row.NovaCubes == 0 || row.NovaLits == 0 {
			continue
		}
		pts = append(pts, RatioPoint{
			Name:   e.Name,
			States: e.F.NumStates(),
			Ratios: map[string]float64{
				"MUSTANG/NOVA cubes":    float64(row.MustangCubes) / float64(row.NovaCubes),
				"MUSTANG/NOVA literals": float64(row.MustangLits) / float64(row.NovaLits),
			},
		})
	}
	sortPoints(pts)
	return pts, nil
}

func (r *Runner) ratioSeries(fn func(e bench.Entry, novaArea int) (map[string]float64, error)) ([]RatioPoint, error) {
	pts, err := forEach(r.Opts.tableI(r.Opts.entries()), r.Opts.workers(), func(e bench.Entry) (RatioPoint, error) {
		best, err := r.Run(e.F, nova.Best, 0)
		if err != nil {
			return RatioPoint{}, err
		}
		ratios, err := fn(e, best.Area)
		if err != nil {
			return RatioPoint{}, err
		}
		return RatioPoint{Name: e.Name, States: e.F.NumStates(), Ratios: ratios}, nil
	})
	if err != nil {
		return nil, err
	}
	sortPoints(pts)
	return pts, nil
}

func sortPoints(pts []RatioPoint) {
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].States != pts[j].States {
			return pts[i].States < pts[j].States
		}
		return pts[i].Name < pts[j].Name
	})
}

// FormatFigure renders a ratio-series plot table.
func FormatFigure(title string, pts []RatioPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (examples by increasing #states; ratios over best NOVA)\n", title)
	if len(pts) == 0 {
		return b.String()
	}
	var series []string
	for k := range pts[0].Ratios {
		series = append(series, k)
	}
	sort.Strings(series)
	fmt.Fprintf(&b, "%-10s %7s", "EXAMPLE", "#states")
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s)
	}
	fmt.Fprintln(&b)
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10s %7d", p.Name, p.States)
		for _, s := range series {
			fmt.Fprintf(&b, " %22.2f", p.Ratios[s])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ----------------------------------------------------------------- shared

// literalsOf runs the multilevel stand-in on the minimized encoded cover.
func literalsOf(f *kiss.FSM, res *nova.Result, opts RunOpts) (int, error) {
	e, err := mvmin.EncodePLA(f, res.Assignment)
	if err != nil {
		return 0, err
	}
	min := e.Minimize(espresso.Options{SkipReduce: opts.FastMinimize})
	return mlopt.OptimizedLiterals(min, e.NIn, mlopt.Options{}), nil
}

// creamResult measures the Cappuccino/Cream-style baseline.
func creamResult(f *kiss.FSM, opts RunOpts) (Cell, error) {
	asg, err := baseline.Cream(f, symbolic.Options{Min: espresso.Options{SkipReduce: opts.FastMinimize}})
	if err != nil {
		return Cell{}, err
	}
	m, err := mvmin.Measure(f, asg, espresso.Options{SkipReduce: opts.FastMinimize})
	if err != nil {
		return Cell{}, err
	}
	return Cell{Bits: m.Bits, Cubes: m.Cubes, Area: m.Area}, nil
}

// Ablations (design choices called out in DESIGN.md).

// AblationWeightOrder compares ihybrid's decreasing-weight constraint
// acceptance against increasing-weight order on one machine, returning the
// satisfied weights (decreasing first).
func AblationWeightOrder(f *kiss.FSM) (desc, asc int, err error) {
	p, err := mvmin.Build(f)
	if err != nil {
		return 0, 0, err
	}
	cs := p.Constraints(p.Minimize(espresso.Options{}))
	ics := constraint.Normalize(cs.States)
	rd := encode.IHybrid(f.NumStates(), ics, 0, encode.HybridOptions{})
	// Reverse order: invert weights, then restore for scoring.
	rev := make([]constraint.Constraint, len(ics))
	for i := range ics {
		rev[i] = ics[len(ics)-1-i]
	}
	ra := ihybridInOrder(f.NumStates(), rev, ics)
	return rd.WSat, ra, nil
}

// ihybridInOrder runs the ihybrid acceptance loop over a fixed order and
// scores against the true weights.
func ihybridInOrder(n int, order, score []constraint.Constraint) int {
	var sic []constraint.Constraint
	cube := encode.MinLength(n)
	var enc = encode.IHybrid(n, nil, 0, encode.HybridOptions{}).Enc
	for _, ic := range order {
		r := encode.IHybrid(n, append(append([]constraint.Constraint(nil), sic...), ic), cube, encode.HybridOptions{})
		if r.WUnsat == 0 {
			sic = append(sic, ic)
			enc = r.Enc
		}
	}
	w := 0
	for _, ic := range score {
		if encode.Satisfied(enc, ic.Set) {
			w += ic.Weight
		}
	}
	return w
}
