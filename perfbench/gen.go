package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// shape is one Table I row: binary inputs, outputs, states and rows. The
// dk* machines, which the paper drives through one symbolic input, get
// log2 of its value count as binary inputs so that every generated
// machine is plain KISS2.
type shape struct {
	name           string
	ni, no, ns, nt int
}

// tableI lists the Table I shapes without scf and tbk, whose encodes take
// seconds each and would let two machines dominate a run.
var tableI = []shape{
	{"bbara", 4, 2, 10, 60},
	{"bbsse", 7, 7, 16, 56},
	{"bbtas", 2, 2, 6, 24},
	{"beecount", 3, 4, 7, 28},
	{"cse", 7, 7, 16, 91},
	{"dk14", 3, 5, 7, 56},
	{"dk15", 3, 5, 4, 32},
	{"dk16", 2, 3, 27, 108},
	{"dk17", 2, 3, 8, 32},
	{"dk27", 1, 2, 7, 14},
	{"dk512", 1, 3, 15, 30},
	{"donfile", 2, 1, 24, 96},
	{"ex1", 9, 19, 20, 138},
	{"ex2", 2, 2, 19, 72},
	{"ex3", 2, 2, 10, 36},
	{"ex5", 2, 2, 9, 32},
	{"ex6", 5, 8, 8, 34},
	{"iofsm", 5, 6, 10, 36},
	{"keyb", 7, 2, 19, 170},
	{"mark1", 5, 16, 15, 22},
	{"physrec", 12, 7, 11, 38},
	{"planet", 7, 19, 48, 115},
	{"s1", 8, 6, 20, 107},
	{"sand", 11, 9, 32, 184},
	{"scud", 7, 6, 8, 120},
	{"shiftreg", 1, 1, 8, 16},
	{"styr", 9, 10, 30, 166},
	{"train11", 2, 1, 11, 25},
}

// fastShapes are the Table I shapes whose Best encode takes about 130 ms
// or less. The others (cse, dk16, donfile, ex1, ex2, keyb, planet, s1,
// sand, styr) take 0.2-8 s under Best and vary several-fold with the seed,
// so a handful of them would set a whole run's throughput.
var fastShapes = pick("bbara", "bbsse", "bbtas", "beecount", "dk14", "dk15",
	"dk17", "dk27", "dk512", "ex3", "ex5", "ex6", "iofsm", "mark1", "physrec",
	"scud", "shiftreg", "train11")

func pick(names ...string) []shape {
	var out []shape
	for _, n := range names {
		for _, sp := range tableI {
			if sp.name == n {
				out = append(out, sp)
			}
		}
	}
	return out
}

// Machine is one generated FSM as the program receives it: KISS2 text.
type Machine struct {
	Name  string
	KISS2 string
}

// Streams keep the workloads' draws apart: the same seed gives best-cold
// and greedy-cold different machines, and serve-mix a third pool.
const (
	streamBest   = 1
	streamGreedy = 2
	streamServe  = 3
)

// machineSeed derives the generator seed of machine i of a stream
// (splitmix64 finalizer over the three words).
func machineSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) & 0x7fffffffffffffff)
}

// Generate returns machine i of a stream. Shapes rotate through shapes in
// order, so every run of n machines has the same shape mix whatever the
// seed; the seed only changes the transitions.
func Generate(shapes []shape, seed int64, stream, i int) Machine {
	sp := shapes[i%len(shapes)]
	rng := rand.New(rand.NewSource(machineSeed(seed, stream, i)))
	return Machine{
		Name:  fmt.Sprintf("%s-%d", sp.name, i),
		KISS2: synthesize(sp, rng),
	}
}

// Corpus returns machines [from, from+n) of a stream.
func Corpus(shapes []shape, seed int64, stream, from, n int) []Machine {
	out := make([]Machine, n)
	for k := range out {
		out[k] = Generate(shapes, seed, stream, from+k)
	}
	return out
}

// synthesize draws a clustered machine of the shape, the construction of
// the built-in suite: states fall into behavioural clusters whose members
// mostly share (next state, output) for the same input cube, which is what
// makes multiple-valued minimization merge their rows into input
// constraints. Each state's rows cover disjoint input cubes, so the
// machine is deterministic.
func synthesize(sp shape, rng *rand.Rand) string {
	rows := make([]int, sp.ns)
	maxRows := 1 << sp.ni
	for i := range rows {
		rows[i] = sp.nt / sp.ns
		if i < sp.nt%sp.ns {
			rows[i]++
		}
		rows[i] = max(1, min(rows[i], maxRows))
	}
	maxG := 0
	for _, g := range rows {
		maxG = max(maxG, g)
	}

	nClusters := sp.ns/3 + 1
	cluster := make([]int, sp.ns)
	for i := range cluster {
		cluster[i] = rng.Intn(nClusters)
	}
	pool := make([]int, sp.ns/4+2)
	for i := range pool {
		pool[i] = rng.Intn(sp.ns)
	}
	sharedNext := make([][]int, nClusters)
	sharedOut := make([][]string, nClusters)
	for c := range sharedNext {
		sharedNext[c] = make([]int, maxG)
		sharedOut[c] = make([]string, maxG)
		for j := 0; j < maxG; j++ {
			sharedNext[c][j] = pool[rng.Intn(len(pool))]
			sharedOut[c][j] = randomOut(rng, sp.no)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".i %d\n.o %d\n.s %d\n.r s0\n", sp.ni, sp.no, sp.ns)
	for si := 0; si < sp.ns; si++ {
		for j, in := range splitInputSpace(sp.ni, rows[si]) {
			next, out := sharedNext[cluster[si]][j], sharedOut[cluster[si]][j]
			if rng.Float64() > 0.7 {
				next = rng.Intn(sp.ns)
			}
			if rng.Float64() > 0.7 {
				out = randomOut(rng, sp.no)
			}
			fmt.Fprintf(&b, "%s s%d s%d %s\n", in, si, next, out)
		}
	}
	b.WriteString(".e\n")
	return b.String()
}

func randomOut(rng *rand.Rand, no int) string {
	b := make([]byte, no)
	for i := range b {
		b[i] = '0'
		if rng.Intn(3) == 0 {
			b[i] = '1'
		}
	}
	return string(b)
}

// splitInputSpace returns m disjoint cubes jointly covering the ni-input
// space, by repeatedly halving the cube with the most don't-cares.
func splitInputSpace(ni, m int) []string {
	cubes := []string{strings.Repeat("-", ni)}
	for len(cubes) < m {
		best, dash := -1, 0
		for i, c := range cubes {
			if d := strings.Count(c, "-"); d > dash {
				best, dash = i, d
			}
		}
		if best < 0 {
			break
		}
		c := cubes[best]
		pos := strings.IndexByte(c, '-')
		a, z := c[:pos]+"0"+c[pos+1:], c[:pos]+"1"+c[pos+1:]
		cubes = append(cubes[:best], append([]string{a, z}, cubes[best+1:]...)...)
	}
	return cubes
}

// Respell renames every state of a generated KISS2 table (s<k> becomes
// tag<k>). The machine is the same, state order included, so the engine's
// memos, keyed by problem content, recognise it, while its canonical text,
// and so its serving cache key, differs.
func Respell(kiss2, tag string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(kiss2, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && !strings.HasPrefix(f[0], "."):
			fmt.Fprintf(&b, "%s %s%s %s%s %s\n", f[0], tag, f[1][1:], tag, f[2][1:], f[3])
		case len(f) == 2 && f[0] == ".r":
			fmt.Fprintf(&b, ".r %s%s\n", tag, f[1][1:])
		default:
			b.WriteString(line)
		}
	}
	return b.String()
}
