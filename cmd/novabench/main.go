// Command novabench regenerates the tables and figures of the NOVA paper's
// evaluation (Section VII) on the built-in benchmark suite.
//
// Usage:
//
//	novabench [-table N] [-only name,name] [-skip-huge] [-fast] [-seed S]
//	          [-phase-table] [-trace out.json] [-cpuprofile f] [-memprofile f]
//	novabench -compare OLD.json,NEW.json
//
// With no -table flag every experiment runs in order. Table numbers follow
// the paper: 1-7 are Tables I-VII, 8-10 are the plot series the paper
// prints as Tables VIII-X.
//
// -compare diffs two benchmark records written by scripts/bench_record.sh
// against the bounds in BENCHMARK.json (read from the current directory,
// so run it from the repository root). It exits 1 when a run failed, a
// workload is missing, or area_total or cubes_total differ on any
// (workload, seed); 2 when the files cannot be read or cover different
// runs. Timing metrics are printed as advisory lines only.
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
	"nova/internal/bench"
	"nova/internal/experiments"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("novabench", flag.ContinueOnError)
	table := fs.Int("table", 0, "table/figure to regenerate (1..10, 0 = all)")
	only := fs.String("only", "", "comma-separated benchmark names to restrict to")
	skipHuge := fs.Bool("skip-huge", false, "skip the time-intensive machines (scf, tbk)")
	fast := fs.Bool("fast", false, "use the faster single-pass minimizer")
	seed := fs.Int64("seed", 1, "seed for the random baselines")
	par := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS)")
	exactBudget := fs.Int("exact-budget", 1_500_000, "iexact work budget per machine (0 = library default)")
	timeout := fs.Duration("timeout", 0, "abort the whole run after this long (0 = no limit)")
	phaseTable := fs.Bool("phase-table", false, "print a per-machine phase time breakdown after the tables")
	tracePath := fs.String("trace", "", "write a JSON-lines phase trace to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	compare := fs.String("compare", "", "OLD.json,NEW.json: diff two scripts/bench_record.sh records; exit 1 on a failed run or any area/cube difference")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *compare != "" {
		return compareMain(*compare, "BENCHMARK.json", os.Stdout)
	}

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
		if bad := unknownMachines(names); len(bad) > 0 {
			fmt.Fprintln(os.Stderr, "novabench: -only names unknown machines:", strings.Join(bad, ", "))
			return 2
		}
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
		Only:         names,
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

	// Fill the result cache with the machines in parallel: the tables
	// below then mostly read memoized results. iexact is left to the
	// per-table path, which runs it under the -exact-budget work budget
	// and renders a "-" entry for machines that still give up.
	if *table != 1 {
		prewarm := []nova.Algorithm{nova.IHybrid, nova.IGreedy, nova.IOHybrid, nova.KISS, nova.Random}
		if err := r.Prewarm(prewarm...); err != nil {
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

// unknownMachines returns the names that are not in the benchmark suite,
// in the order given.
func unknownMachines(names []string) []string {
	var bad []string
	for _, n := range names {
		if bench.Get(n) == nil {
			bad = append(bad, n)
		}
	}
	return bad
}
