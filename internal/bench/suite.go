// Package bench provides the benchmark FSM suite of the paper's Table I
// (plus the Table V extras). The original MCNC KISS2 files are not
// available offline, so the suite contains:
//
//   - semantic reconstructions where the machine is defined by its name
//     (shiftreg: a 3-bit shift register; modulo12: a mod-12 counter);
//   - deterministic synthetic machines matched to each benchmark's
//     published statistics (#inputs, #outputs, #states, #terms), generated
//     with per-name seeds and a clustered transition structure so that
//     multiple-valued minimization finds meaningful input constraints, as
//     the real benchmarks do.
//
// The dk* examples are modeled with one symbolic proper input (the paper
// encodes their inputs together with the states: the '*' rows of Tables
// II-IV), with 2^ni values matching the original binary input width.
//
// All machines are fully deterministic (seeded), so every experiment is
// reproducible run to run.
package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"

	"nova/internal/kiss"
)

// Entry is one benchmark machine.
type Entry struct {
	Name string
	F    *kiss.FSM
	// TableV marks membership in the Table V (Cappuccino/Cream) subset.
	TableV bool
	// Huge marks the time-intensive machines (scf, tbk) that long-running
	// experiments may skip under -short.
	Huge bool
}

// spec describes how to synthesize one benchmark.
type spec struct {
	name   string
	ni     int // binary inputs
	sym    int // values of the single symbolic input (0 = none)
	no     int
	ns     int
	terms  int  // target number of rows
	tableV bool //nolint:unused // set in the table below
	huge   bool
	make   func() *kiss.FSM // semantic construction override
}

// Table I statistics (with the iofsm/physrec/scud/do1 shapes inferred from
// the paper's area figures where the statistics table is not legible, and
// tbk scaled from 1569 to 256 rows to keep the substrate minimizer within
// a laptop budget — documented in DESIGN.md).
var specs = []spec{
	{name: "bbara", ni: 4, no: 2, ns: 10, terms: 60},
	{name: "bbsse", ni: 7, no: 7, ns: 16, terms: 56},
	{name: "bbtas", ni: 2, no: 2, ns: 6, terms: 24, tableV: true},
	{name: "beecount", ni: 3, no: 4, ns: 7, terms: 28},
	{name: "cse", ni: 7, no: 7, ns: 16, terms: 91, tableV: true},
	{name: "dk14", sym: 8, no: 5, ns: 7, terms: 56, tableV: true},
	{name: "dk15", sym: 8, no: 5, ns: 4, terms: 32, tableV: true},
	{name: "dk16", sym: 4, no: 3, ns: 27, terms: 108, tableV: true},
	{name: "dk17", sym: 4, no: 3, ns: 8, terms: 32, tableV: true},
	{name: "dk27", sym: 2, no: 2, ns: 7, terms: 14, tableV: true},
	{name: "dk512", sym: 2, no: 3, ns: 15, terms: 30, tableV: true},
	{name: "donfile", ni: 2, no: 1, ns: 24, terms: 96},
	{name: "ex1", ni: 9, no: 19, ns: 20, terms: 138},
	{name: "ex2", ni: 2, no: 2, ns: 19, terms: 72},
	{name: "ex3", ni: 2, no: 2, ns: 10, terms: 36},
	{name: "ex5", ni: 2, no: 2, ns: 9, terms: 32},
	{name: "ex6", ni: 5, no: 8, ns: 8, terms: 34},
	{name: "iofsm", ni: 5, no: 6, ns: 10, terms: 36},
	{name: "keyb", ni: 7, no: 2, ns: 19, terms: 170},
	{name: "mark1", ni: 5, no: 16, ns: 15, terms: 22},
	{name: "physrec", ni: 12, no: 7, ns: 11, terms: 38},
	{name: "planet", ni: 7, no: 19, ns: 48, terms: 115},
	{name: "s1", ni: 8, no: 6, ns: 20, terms: 107, tableV: true},
	{name: "sand", ni: 11, no: 9, ns: 32, terms: 184, tableV: true},
	{name: "scf", ni: 27, no: 56, ns: 121, terms: 166, huge: true},
	{name: "scud", ni: 7, no: 6, ns: 8, terms: 120},
	{name: "shiftreg", ni: 1, no: 1, ns: 8, terms: 16, tableV: true, make: shiftreg},
	{name: "styr", ni: 9, no: 10, ns: 30, terms: 166, tableV: true},
	{name: "tbk", ni: 6, no: 3, ns: 32, terms: 256, huge: true},
	{name: "train11", ni: 2, no: 1, ns: 11, terms: 25, tableV: true},
	// Table V extras not in Table I.
	{name: "lion", ni: 2, no: 1, ns: 4, terms: 11, tableV: true},
	{name: "lion9", ni: 2, no: 1, ns: 9, terms: 25, tableV: true},
	{name: "modulo12", ni: 1, no: 1, ns: 12, terms: 24, tableV: true, make: modulo12},
	{name: "tav", ni: 4, no: 4, ns: 4, terms: 49, tableV: true},
	{name: "do1", ni: 2, no: 1, ns: 8, terms: 20, tableV: true},
}

var (
	once  sync.Once
	suite []Entry
	byNm  map[string]*Entry
)

func build() {
	byNm = map[string]*Entry{}
	for _, sp := range specs {
		var f *kiss.FSM
		if sp.make != nil {
			f = sp.make()
		} else {
			f = synthesize(sp)
		}
		f.Name = sp.name
		if err := f.Validate(); err != nil {
			panic(fmt.Sprintf("bench: %s: %v", sp.name, err))
		}
		suite = append(suite, Entry{Name: sp.name, F: f, TableV: sp.tableV, Huge: sp.huge})
		byNm[sp.name] = &suite[len(suite)-1]
	}
}

// Suite returns every benchmark entry in Table order (built once).
func Suite() []Entry {
	once.Do(build)
	return suite
}

// TableI returns the 30 machines of Table I (everything except the
// Table V extras).
func TableI() []Entry {
	var out []Entry
	extras := map[string]bool{"lion": true, "lion9": true, "modulo12": true, "tav": true, "do1": true}
	for _, e := range Suite() {
		if !extras[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

// TableV returns the Table V subset.
func TableV() []Entry {
	var out []Entry
	for _, e := range Suite() {
		if e.TableV {
			out = append(out, e)
		}
	}
	return out
}

// Get returns a named benchmark, or nil.
func Get(name string) *kiss.FSM {
	once.Do(build)
	if e, ok := byNm[name]; ok {
		return e.F
	}
	return nil
}

// seedFor derives a stable per-name seed.
func seedFor(name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// splitInputSpace returns m disjoint input cubes (strings over 0/1/-) that
// jointly cover the ni-input space, by repeated halving of the widest cube.
func splitInputSpace(ni, m int) []string {
	cubes := []string{strings.Repeat("-", ni)}
	for len(cubes) < m {
		// Split the cube with the most dashes (first such).
		best, dash := -1, -1
		for i, c := range cubes {
			d := strings.Count(c, "-")
			if d > dash {
				best, dash = i, d
			}
		}
		if dash <= 0 {
			break // space exhausted
		}
		c := cubes[best]
		pos := strings.IndexByte(c, '-')
		a := c[:pos] + "0" + c[pos+1:]
		b := c[:pos] + "1" + c[pos+1:]
		cubes = append(cubes[:best], append([]string{a, b}, cubes[best+1:]...)...)
	}
	return cubes
}

// synthesize builds a deterministic clustered machine matching the spec:
// states are grouped into behavioural clusters; within a cluster, states
// frequently share (next state, output) reactions to the same input cube,
// which is precisely what makes multiple-valued minimization merge their
// rows and emit input constraints.
func synthesize(sp spec) *kiss.FSM {
	rng := rand.New(rand.NewSource(seedFor(sp.name)))
	f := kiss.New(sp.name, sp.ni, sp.no)
	var symName []string
	if sp.sym > 0 {
		for v := 0; v < sp.sym; v++ {
			symName = append(symName, fmt.Sprintf("v%d", v))
		}
		f.AddSymbolicInput("in", symName...)
	}
	states := make([]string, sp.ns)
	for i := range states {
		states[i] = fmt.Sprintf("s%d", i)
		f.State(states[i]) // fix index order
	}
	f.SetReset("s0")

	// Number of rows per state.
	groups := make([]int, sp.ns)
	base := sp.terms / sp.ns
	rem := sp.terms - base*sp.ns
	maxG := 1 << uint(sp.ni)
	if sp.sym > 0 {
		maxG = sp.sym
	}
	for i := range groups {
		groups[i] = base
		if i < rem {
			groups[i]++
		}
		if groups[i] < 1 {
			groups[i] = 1
		}
		if groups[i] > maxG {
			groups[i] = maxG
		}
	}

	nClusters := sp.ns/3 + 1
	cluster := make([]int, sp.ns)
	for i := range cluster {
		cluster[i] = rng.Intn(nClusters)
	}
	// Shared per-(cluster, group-index) behaviour. Next states are drawn
	// from a small pool so several clusters funnel into the same targets.
	maxGroups := 0
	for _, g := range groups {
		if g > maxGroups {
			maxGroups = g
		}
	}
	poolSize := sp.ns/4 + 2
	pool := make([]int, poolSize)
	for i := range pool {
		pool[i] = rng.Intn(sp.ns)
	}
	sharedNext := make([][]int, nClusters)
	sharedOut := make([][]string, nClusters)
	for c := 0; c < nClusters; c++ {
		sharedNext[c] = make([]int, maxGroups)
		sharedOut[c] = make([]string, maxGroups)
		for j := 0; j < maxGroups; j++ {
			sharedNext[c][j] = pool[rng.Intn(poolSize)]
			sharedOut[c][j] = randomOut(rng, sp.no)
		}
	}

	for si := 0; si < sp.ns; si++ {
		g := groups[si]
		var inCubes []string
		if sp.sym > 0 {
			perm := rng.Perm(sp.sym)
			for _, v := range perm[:g] {
				inCubes = append(inCubes, symName[v])
			}
		} else {
			inCubes = splitInputSpace(sp.ni, g)
		}
		for j, in := range inCubes {
			next := sharedNext[cluster[si]][j]
			out := sharedOut[cluster[si]][j]
			if rng.Float64() > 0.7 {
				next = rng.Intn(sp.ns)
			}
			if rng.Float64() > 0.7 {
				out = randomOut(rng, sp.no)
			}
			if sp.sym > 0 {
				f.MustAddRow("", states[si], states[next], out, in)
			} else {
				f.MustAddRow(in, states[si], states[next], out)
			}
		}
	}
	return f
}

func randomOut(rng *rand.Rand, no int) string {
	b := make([]byte, no)
	for i := range b {
		if rng.Intn(3) == 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// shiftreg is the exact 3-bit serial shift register of the MCNC suite:
// 8 states (the register contents), serial input, serial output (the bit
// shifted out), 16 fully specified transitions.
func shiftreg() *kiss.FSM {
	f := kiss.New("shiftreg", 1, 1)
	name := func(v int) string { return fmt.Sprintf("s%d%d%d", v>>2&1, v>>1&1, v&1) }
	for v := 0; v < 8; v++ {
		f.State(name(v))
	}
	for v := 0; v < 8; v++ {
		outBit := v >> 2 & 1
		for in := 0; in < 2; in++ {
			next := (v<<1)&7 | in
			f.MustAddRow(fmt.Sprintf("%d", in), name(v), name(next), fmt.Sprintf("%d", outBit))
		}
	}
	f.SetReset(name(0))
	return f
}

// modulo12 is a modulo-12 counter with an enable input; the output pulses
// on wrap-around. 24 fully specified transitions.
func modulo12() *kiss.FSM {
	f := kiss.New("modulo12", 1, 1)
	name := func(v int) string { return fmt.Sprintf("c%d", v) }
	for v := 0; v < 12; v++ {
		f.State(name(v))
	}
	for v := 0; v < 12; v++ {
		next := (v + 1) % 12
		wrap := "0"
		if next == 0 {
			wrap = "1"
		}
		f.MustAddRow("1", name(v), name(next), wrap)
		f.MustAddRow("0", name(v), name(v), "0")
	}
	f.SetReset(name(0))
	return f
}
