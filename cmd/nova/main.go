// Command nova encodes a finite state machine for a two-level (PLA)
// implementation, in the manner of the original NOVA tool.
//
// Usage:
//
//	nova [-e algorithm] [-bits N] [-pla] [-verify] [-stats] [-v] [-trace out.json] file.kiss2
//
// The input is a KISS2 state transition table ("-" reads stdin). The tool
// prints the code assignment and the product-term count and PLA area of
// the minimized encoded machine; -pla additionally prints the encoded PLA
// in espresso format, and -verify simulates the encoded machine against
// the symbolic table. -trace streams every pipeline phase as JSON lines
// to a file, and -v prints a structured run report (phase times and hot
// counters) to stderr.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"nova"
)

func main() {
	os.Exit(run())
}

func run() int {
	alg := flag.String("e", "best", "encoding algorithm: iexact, ihybrid, igreedy, iohybrid, iovariant, best, portfolio, kiss, onehot, random, mustang-p, mustang-n, mustang-pt, mustang-nt")
	bits := flag.Int("bits", 0, "encoding length (0 = minimum)")
	pla := flag.Bool("pla", false, "print the minimized encoded PLA")
	doVerify := flag.Bool("verify", false, "verify the encoded machine against the symbolic table")
	stats := flag.Bool("stats", false, "print machine statistics and input constraints")
	seed := flag.Int64("seed", 1, "seed for the random algorithm")
	trials := flag.Int("random-trials", 0, "batch size for -e random (0 = #states + #symbolic inputs)")
	maxWork := flag.Int("max-work", 0, "bounded-backtracking work budget (0 = default)")
	fast := flag.Bool("fast", false, "faster single-pass minimization")
	par := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the encode after this long (0 = no limit)")
	tracePath := flag.String("trace", "", "write a JSON-lines phase trace to this file")
	verbose := flag.Bool("v", false, "print a structured run report (phases + counters) to stderr")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nova [flags] file.kiss2  (use - for stdin)")
		flag.Usage()
		return 2
	}
	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	fsm, err := nova.ParseKISS(in)
	if err != nil {
		return fail(err)
	}

	// Telemetry: -trace and -v both want a tracer; -trace additionally
	// streams the spans as JSON lines.
	var tracer *nova.Tracer
	if *tracePath != "" || *verbose {
		tracer = nova.NewTracer()
		tracer.SetLabel(fsm.Name)
		if *tracePath != "" {
			tf, err := os.Create(*tracePath)
			if err != nil {
				return fail(err)
			}
			bw := bufio.NewWriter(tf)
			tracer.SetWriter(bw)
			defer func() {
				bw.Flush()
				tf.Close()
			}()
		}
	}

	if *stats {
		st := fsm.Stats()
		fmt.Printf("machine: %d inputs, %d symbolic inputs, %d outputs, %d states, %d terms\n",
			st.Inputs, st.SymIns, st.Outputs, st.States, st.Terms)
		ics, _, err := nova.ConstraintsContext(ctx, fsm)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("input constraints (%d):\n", len(ics))
		for _, ic := range ics {
			fmt.Printf("  %s  (weight %d)\n", ic.Set, ic.Weight)
		}
	}

	res, err := nova.EncodeContext(ctx, fsm, nova.Options{
		Algorithm:    nova.Algorithm(*alg),
		Bits:         *bits,
		Seed:         *seed,
		KeepPLA:      *pla,
		RandomTrials: *trials,
		MaxWork:      *maxWork,
		FastMinimize: *fast,
		Parallelism:  *par,
		Tracer:       tracer,
	})
	// The snapshot and summary record go out even on failure: an
	// interrupted or gave-up run still leaves a valid trace.
	defer emitSummary(tracer, res, *verbose)
	switch {
	case errors.Is(err, nova.ErrGaveUp):
		fmt.Println("iexact: gave up within the work budget (try ihybrid)")
		return 1
	case err != nil:
		return fail(err)
	}

	fmt.Printf("algorithm: %s\n", res.Algorithm)
	if res.Winner != "" {
		fmt.Printf("winner:    %s\n", res.Winner)
	}
	fmt.Printf("codes (%d bits):\n", res.Assignment.States.Bits)
	for i, name := range fsm.States {
		fmt.Printf("  %-12s %s\n", name, res.Assignment.States.CodeString(i))
	}
	for vi, enc := range res.Assignment.SymIns {
		fmt.Printf("symbolic input %s (%d bits):\n", fsm.SymIns[vi].Name, enc.Bits)
		for i, v := range fsm.SymIns[vi].Values {
			fmt.Printf("  %-12s %s\n", v, enc.CodeString(i))
		}
	}
	fmt.Printf("product terms: %d\n", res.Cubes)
	fmt.Printf("PLA area:      %d\n", res.Area)
	if res.WSat+res.WUnsat > 0 {
		fmt.Printf("constraints:   weight %d satisfied, %d unsatisfied\n", res.WSat, res.WUnsat)
	}
	if res.TotalOC > 0 {
		fmt.Printf("covering:      %d/%d output covering edges satisfied\n", res.SatisfiedOC, res.TotalOC)
	}
	if *pla && res.PLA != nil {
		fmt.Println()
		fmt.Print(res.PLA)
	}
	if *doVerify {
		if err := nova.VerifyContext(ctx, fsm, res.Assignment); err != nil {
			return fail(fmt.Errorf("verification FAILED: %v", err))
		}
		fmt.Println("verified: encoded machine matches the symbolic table")
	}
	return 0
}

// emitSummary appends the run summary record to the trace stream and,
// with -v, prints the phase/counter report to stderr.
func emitSummary(tracer *nova.Tracer, res *nova.Result, verbose bool) {
	if tracer == nil {
		return
	}
	snap := tracer.Snapshot()
	fields := map[string]any{
		"wall_us": snap.Wall.Microseconds(),
		"root_us": snap.Root.Microseconds(),
		"spans":   snap.Spans,
	}
	if res != nil {
		fields["area"] = res.Area
		fields["cubes"] = res.Cubes
		fields["bits"] = res.Bits
	}
	tracer.Emit("summary", fields)
	if !verbose {
		return
	}
	fmt.Fprintf(os.Stderr, "run report: wall %v, %d spans\n", snap.Wall, snap.Spans)
	fmt.Fprintf(os.Stderr, "%-22s %6s %12s %12s\n", "phase", "count", "total", "self")
	for _, p := range snap.Phases {
		fmt.Fprintf(os.Stderr, "%-22s %6d %12v %12v\n", p.Name, p.Count, p.Total, p.Self)
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(os.Stderr, "counters:")
		keys := make([]string, 0, len(snap.Counters))
		for k := range snap.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %-24s %d\n", k, snap.Counters[k])
		}
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "nova:", err)
	return 1
}
