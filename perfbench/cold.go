package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nova"
)

// coldSpec is one of the *-cold workloads: every machine is new to the
// process and is encoded once, sequentially, as a build tool calling the
// nova CLI once per FSM would.
type coldSpec struct {
	opt    nova.Options
	stream int
	// rate is the machines per measured second: a run encodes a fixed
	// corpus of rate × --seconds machines (at least minEncodes), sized to
	// take about --seconds on a 2-CPU host. A fixed corpus, not a time
	// box, keeps a run's work, memo growth and quality totals a function
	// of the seed alone, so host speed cannot feed back into them.
	rate float64
	// tailQ is the highest percentile with at least ten encodes beyond it.
	tailQ float64
}

var (
	// bestCold uses the library defaults, the nova CLI defaults: Best
	// over ihybrid, igreedy and iohybrid with Parallelism = GOMAXPROCS.
	bestCold = coldSpec{opt: nova.Options{}, stream: streamBest, rate: 25, tailQ: 0.9}
	// greedyCold runs igreedy, whose time goes to the minimizers.
	greedyCold = coldSpec{opt: nova.Options{Algorithm: nova.IGreedy}, stream: streamGreedy, rate: 80, tailQ: 0.9}
)

// minEncodes keeps at least ten samples beyond the p90.
const minEncodes = 100

// size is the corpus size of a run measuring the given seconds.
func (w coldSpec) size(seconds float64) int { return max(minEncodes, int(w.rate*seconds)) }

// prepare generates the corpus and checks that every machine parses,
// validates and is deterministic.
func prepare(w coldSpec, c config) ([]Machine, error) {
	corpus := Corpus(fastShapes, c.seed, w.stream, 0, w.size(c.seconds))
	for _, m := range corpus {
		f, err := nova.ParseKISSString(m.KISS2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}
		if ok, why := f.Deterministic(); !ok {
			return nil, fmt.Errorf("%s: not deterministic: %s", m.Name, why)
		}
	}
	return corpus, nil
}

func runCold(c config, w coldSpec) *Result {
	res := &Result{Correct: true}
	corpus, setup, err := timeSetup(func() ([]Machine, error) { return prepare(w, c) }, nil)
	if err != nil {
		res.fail("setup: %v", err)
		return res
	}
	ctx := context.Background()
	var lats []float64
	var busy time.Duration
	area, cubes := 0, 0
	start := time.Now()
	for _, m := range corpus {
		if time.Since(start) > hardStop {
			res.fail("corpus unfinished after %v", hardStop)
			break
		}
		res.Attempted++
		t0 := time.Now()
		f, err := nova.ParseKISSString(m.KISS2)
		var r *nova.Result
		if err == nil {
			r, err = nova.EncodeContext(ctx, f, w.opt)
		}
		d := time.Since(t0)
		if err != nil {
			res.fail("%s: %v", m.Name, err)
			continue
		}
		busy += d
		lats = append(lats, ms(d))
		if err := nova.VerifyContext(ctx, f, r.Assignment); err != nil {
			res.fail("%s: verify: %v", m.Name, err)
			continue
		}
		area += r.Area
		cubes += r.Cubes
	}
	fmt.Printf("samples encodes=%d tail=p%g\n", len(lats), 100*w.tailQ)
	res.set("setup_s", setup, "s")
	res.set("ops_per_s", float64(len(lats))/busy.Seconds(), "1/s")
	res.set("geomean_ms", geomean(lats), "ms")
	res.set("tail_ms", quantile(lats, w.tailQ), "ms")
	res.set("area_total", float64(area), "area")
	res.set("cubes_total", float64(cubes), "cubes")
	res.set("peak_rss_mb", peakRSSMB(), "MiB")
	return res
}

// printWalls is the untraced reference of a traced cold run, executed in
// a child process so that its memos start as cold as the traced replay's:
// it encodes the corpus at the given Parallelism and prints the total
// encode wall in seconds as JSON.
func printWalls(c config, parallelism int) int {
	w := bestCold
	if c.workload == "greedy-cold" {
		w = greedyCold
	}
	opt := w.opt
	opt.Parallelism = parallelism
	var total time.Duration
	for _, m := range Corpus(fastShapes, c.seed, w.stream, 0, w.size(c.seconds)) {
		t0 := time.Now()
		f, err := nova.ParseKISSString(m.KISS2)
		if err == nil {
			_, err = nova.EncodeContext(context.Background(), f, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", m.Name, err)
			return 1
		}
		total += time.Since(t0)
	}
	b, _ := json.Marshal(total.Seconds())
	fmt.Println(string(b))
	return 0
}
