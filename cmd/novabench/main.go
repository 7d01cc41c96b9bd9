// Command novabench regenerates the tables and figures of the NOVA paper's
// evaluation (Section VII) on the built-in benchmark suite.
//
// Usage:
//
//	novabench [-table N] [-only name,name] [-skip-huge] [-fast] [-seed S]
//	          [-json] [-portfolio] [-count N] [-phase-table] [-trace out.json]
//	          [-cpuprofile f] [-memprofile f]
//	novabench -compare OLD.json,NEW.json [-area-tol 0] [-time-tol 25]
//	novabench -serve-url http://host:8089 [-client-alg igreedy] [-client-hedge 20ms]
//	          [-client-priority low|high] [-only name,name] [-skip-huge] [-count N]
//
// -serve-url switches novabench into a client-mode load generator: the
// benchmark corpus is sent to a running novad through the resilient
// nova/client package (retries, optional hedging, circuit breaker) and
// the run report includes the client's resilience counters. Pair it
// with novad -fault-inject for reproducible chaos runs.
//
// With no -table flag every experiment runs in order. Table numbers follow
// the paper: 1-7 are Tables I-VII, 8-10 are the plot series the paper
// prints as Tables VIII-X.
//
// -compare diffs two BENCH_<date>.json snapshots (written by -json /
// -portfolio) and exits 1 when the candidate regressed: encoded area
// grown past -area-tol percent on any machine/algorithm pair, or table
// wall-clock grown past -time-tol percent. CI runs it non-blocking
// against the committed baseline.
//
// -phase-table prints a per-machine breakdown of where the wall time went
// (espresso / search / symbolic / mvmin) after the tables, -trace streams
// every pipeline phase as JSON lines, and -cpuprofile/-memprofile write
// runtime/pprof profiles of the whole sweep.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nova"
	"nova/internal/experiments"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	table := flag.Int("table", 0, "table/figure to regenerate (1..10, 0 = all)")
	only := flag.String("only", "", "comma-separated benchmark names to restrict to")
	skipHuge := flag.Bool("skip-huge", false, "skip the time-intensive machines (scf, tbk)")
	fast := flag.Bool("fast", false, "use the faster single-pass minimizer")
	seed := flag.Int64("seed", 1, "seed for the random baselines")
	par := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	jsonSnap := flag.Bool("json", false, "measure tables II/IV/VI and write BENCH_<date>.json")
	pfSnap := flag.Bool("portfolio", false, "measure the portfolio race vs single algorithms and write BENCH_<date>.json (combines with -json)")
	count := flag.Int("count", 1, "repetitions per -json table measurement; the snapshot reports the mean (what -compare reads) and the min")
	exactBudget := flag.Int("exact-budget", 1_500_000, "iexact work budget per machine (0 = library default)")
	timeout := flag.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	phaseTable := flag.Bool("phase-table", false, "print a per-machine phase time breakdown after the tables")
	tracePath := flag.String("trace", "", "write a JSON-lines phase trace to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	serveURL := flag.String("serve-url", "", "drive a running novad at this URL instead of encoding in-process (client-mode load generator; honors -only, -skip-huge, -count)")
	clientAlg := flag.String("client-alg", "igreedy", "algorithm requested per machine in -serve-url mode")
	clientHedge := flag.Duration("client-hedge", 0, "hedge delay in -serve-url mode (0 = hedging off)")
	clientPriority := flag.String("client-priority", "", "X-Nova-Priority in -serve-url mode (low or high)")
	compare := flag.String("compare", "", "OLD.json,NEW.json: diff two BENCH snapshots and exit 1 on area/wall-clock regressions")
	areaTol := flag.Float64("area-tol", 0, "allowed area growth in percent before -compare fails (encodes are deterministic; default 0)")
	timeTol := flag.Float64("time-tol", 25, "allowed table wall-clock growth in percent before -compare fails")
	flag.Parse()

	if *compare != "" {
		return compareMain(*compare, *areaTol, *timeTol)
	}

	// ^C (or the -timeout deadline) cancels in-flight encodes promptly:
	// the context reaches the backtracking searches and espresso loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serveURL != "" {
		cf := clientFlags{
			url:       *serveURL,
			algorithm: *clientAlg,
			skipHuge:  *skipHuge,
			hedge:     *clientHedge,
			priority:  *clientPriority,
			budget:    2 * time.Minute,
			count:     *count,
		}
		if *only != "" {
			cf.only = strings.Split(*only, ",")
		}
		return clientMain(ctx, cf)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "novabench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "novabench:", err)
			}
		}()
	}

	opts := experiments.RunOpts{
		Ctx:          ctx,
		SkipHuge:     *skipHuge,
		Seed:         *seed,
		FastMinimize: *fast,
		Parallel:     *par,
		ExactBudget:  *exactBudget,
		Observe:      *phaseTable,
	}
	if *only != "" {
		opts.Only = strings.Split(*only, ",")
	}
	if *jsonSnap || *pfSnap {
		name, err := writeBenchJSON(opts, *count, *jsonSnap, *pfSnap)
		if err != nil {
			return fail(err)
		}
		fmt.Println("wrote", name)
		return 0
	}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		traceFile, traceBuf = f, bufio.NewWriter(f)
		opts.TraceWriter = traceBuf
	}
	r := experiments.NewRunner(opts)

	// The phase table and the trace flush are deferred so that an
	// interrupted sweep still reports whatever it measured. Order
	// matters: the telemetry snapshot (inside PhaseTable) is taken
	// first, then the partial results are flushed — the trace file
	// always ends as valid, complete JSON lines.
	defer func() {
		if *phaseTable {
			if rows := r.PhaseTable(); len(rows) > 0 {
				fmt.Println("PHASE TABLE — self time per pipeline stage")
				fmt.Println(experiments.FormatPhaseTable(rows))
			}
		}
		if traceBuf != nil {
			traceBuf.Flush()
			traceFile.Close()
		}
	}()

	// Fill the result cache through the concurrent batch API: the tables
	// below then mostly read memoized results. iexact is left to the
	// per-table path: a give-up there is just a per-machine entry in the
	// joined batch error, but the tables want their own budgeted runs and
	// render a "-" entry for machines that still give up.
	if *table != 1 {
		prewarm := []nova.Algorithm{nova.IHybrid, nova.IGreedy, nova.IOHybrid, nova.KISS, nova.Random}
		if err := r.Prewarm(ctx, prewarm...); err != nil {
			return fail(fmt.Errorf("prewarm: %w", err))
		}
	}

	run := func(n int) error {
		start := time.Now()
		var out string
		var err error
		switch n {
		case 1:
			out = experiments.FormatTableI(r.TableI())
		case 2:
			var rows []experiments.RowII
			rows, err = r.TableII()
			out = experiments.FormatTableII(rows)
		case 3:
			var rows []experiments.RowIII
			rows, err = r.TableIII()
			out = experiments.FormatTableIII(rows)
		case 4:
			var rows []experiments.RowIV
			rows, err = r.TableIV()
			out = experiments.FormatTableIV(rows)
		case 5:
			var rows []experiments.RowV
			rows, err = r.TableV()
			out = experiments.FormatTableV(rows)
		case 6:
			var rows []experiments.RowVI
			rows, err = r.TableVI()
			out = experiments.FormatTableVI(rows)
		case 7:
			var rows []experiments.RowVII
			rows, err = r.TableVII()
			out = experiments.FormatTableVII(rows)
		case 8:
			var pts []experiments.RatioPoint
			pts, err = r.FigureVIII()
			out = experiments.FormatFigure("TABLE VIII — SUMMARY OF NOVA vs KISS AND RANDOM", pts)
		case 9:
			var pts []experiments.RatioPoint
			pts, err = r.FigureIX()
			out = experiments.FormatFigure("TABLE IX — ihybrid AND iohybrid OVER BEST OF NOVA", pts)
		case 10:
			var pts []experiments.RatioPoint
			pts, err = r.FigureX()
			out = experiments.FormatFigure("TABLE X — MUSTANG OVER NOVA (cubes AND literals)", pts)
		default:
			return fmt.Errorf("unknown table %d", n)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
		fmt.Printf("[table %d regenerated in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
		return nil
	}

	if *table != 0 {
		if err := run(*table); err != nil {
			return fail(err)
		}
		return 0
	}
	for n := 1; n <= 10; n++ {
		if err := run(n); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "novabench:", err)
	return 1
}
