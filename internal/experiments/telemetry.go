package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nova"
)

// PhaseRow is the per-machine row of the phase table: total traced time
// plus the self-time of each pipeline stage, classified by span-name
// prefix (espresso.*, search.*, symbolic.*, mvmin.*, encode.preprocess;
// everything else — the nova.encode / nova.finish envelopes — lands in
// Other). Self times exclude nested child spans, so the stage columns
// partition Total up to clock skew.
type PhaseRow struct {
	Machine    string
	Total      time.Duration
	Preprocess time.Duration
	Espresso   time.Duration
	Search     time.Duration
	Symbolic   time.Duration
	Mvmin      time.Duration
	Other      time.Duration
	// A few headline counters for the table footer.
	Counters map[string]int64
}

// PhaseTable summarizes every machine tracer of an observing runner,
// sorted by machine name. It returns nil when the runner was built
// without RunOpts.Observe/TraceWriter.
func (r *Runner) PhaseTable() []PhaseRow {
	if !r.observing() {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.tracers))
	for n := range r.tracers {
		names = append(names, n)
	}
	tr := make(map[string]*nova.Tracer, len(r.tracers))
	for n, t := range r.tracers {
		tr[n] = t
	}
	r.mu.Unlock()
	sort.Strings(names)

	rows := make([]PhaseRow, 0, len(names))
	for _, n := range names {
		rows = append(rows, phaseRow(n, tr[n].Snapshot()))
	}
	return rows
}

func phaseRow(machine string, snap *nova.TelemetrySnapshot) PhaseRow {
	row := PhaseRow{Machine: machine, Total: snap.Root, Counters: snap.Counters}
	for _, p := range snap.Phases {
		switch {
		case strings.HasPrefix(p.Name, "encode.preprocess"):
			row.Preprocess += p.Self
		case strings.HasPrefix(p.Name, "espresso."):
			row.Espresso += p.Self
		case strings.HasPrefix(p.Name, "search."):
			row.Search += p.Self
		case strings.HasPrefix(p.Name, "symbolic."):
			row.Symbolic += p.Self
		case strings.HasPrefix(p.Name, "mvmin."):
			row.Mvmin += p.Self
		default:
			row.Other += p.Self
		}
	}
	return row
}

// FormatPhaseTable renders the rows as an aligned text table with a
// footer of aggregate counters (tautology calls, arena reuse, searcher
// work and backtracks, search pruning and its memo hit rate, face-check
// satisfaction ratio, pool activity).
func FormatPhaseTable(rows []PhaseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s %10s\n",
		"machine", "total", "preproc", "espresso", "search", "symbolic", "mvmin", "other")
	var sum PhaseRow
	agg := map[string]int64{}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s %10s\n",
			r.Machine, ms(r.Total), ms(r.Preprocess), ms(r.Espresso), ms(r.Search), ms(r.Symbolic), ms(r.Mvmin), ms(r.Other))
		sum.Total += r.Total
		sum.Preprocess += r.Preprocess
		sum.Espresso += r.Espresso
		sum.Search += r.Search
		sum.Symbolic += r.Symbolic
		sum.Mvmin += r.Mvmin
		sum.Other += r.Other
		for k, v := range r.Counters {
			agg[k] += v
		}
	}
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %10s %10s %10s %10s\n",
		"TOTAL", ms(sum.Total), ms(sum.Preprocess), ms(sum.Espresso), ms(sum.Search), ms(sum.Symbolic), ms(sum.Mvmin), ms(sum.Other))

	b.WriteString("\ncounters:\n")
	fmt.Fprintf(&b, "  espresso iterations      %d\n", agg["espresso.iterations"])
	fmt.Fprintf(&b, "  tautology calls          %d\n", agg["tautology.calls"])
	fmt.Fprintf(&b, "  arena cubes              %d allocated / %d reused\n",
		agg["arena.cubes_alloc"], agg["arena.cubes_reused"])
	fmt.Fprintf(&b, "  searcher work            %d (backtracks %d)\n",
		agg["search.work"], agg["search.backtracks"])
	fmt.Fprintf(&b, "  search pruning           %d merged / %d symmetry pruned / memo hit rate %s\n",
		agg["search.constraints.merged"], agg["search.symmetry.pruned"],
		ratio(agg["search.memo.hit"], agg["search.memo.hit"]+agg["search.memo.miss"]))
	fmt.Fprintf(&b, "  face checks              %d ok / %d fail (satisfaction %s)\n",
		agg["search.checks_ok"], agg["search.checks_fail"],
		ratio(agg["search.checks_ok"], agg["search.checks_ok"]+agg["search.checks_fail"]))
	fmt.Fprintf(&b, "  pool tasks               %d spawned / %d inline\n",
		agg["pool.tasks"], agg["pool.inline"])
	var outcomes []string
	for k, v := range agg {
		if strings.HasPrefix(k, "algo.") {
			outcomes = append(outcomes, fmt.Sprintf("%s=%d", strings.TrimPrefix(k, "algo."), v))
		}
	}
	if len(outcomes) > 0 {
		sort.Strings(outcomes)
		fmt.Fprintf(&b, "  algorithm outcomes       %s\n", strings.Join(outcomes, " "))
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

func ratio(num, den int64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
