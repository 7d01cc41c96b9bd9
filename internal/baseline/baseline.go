// Package baseline implements the comparison encoders of the paper's
// evaluation: the 1-hot encoding, random state assignments (best and
// average of a batch), a MUSTANG-style multilevel-oriented encoder with
// the -p/-n/-pt/-nt weight functions, and a Cappuccino/Cream-style
// encoder (symbolic minimization followed by complete constraint
// satisfaction at a non-minimum length). The KISS-style encoder, which
// satisfies every input constraint at a heuristic (non-minimum) code
// length, is encode.SatisfyAll.
package baseline

import (
	"math/rand"
	"sort"

	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/kiss"
	"nova/internal/symbolic"
)

// OneHot returns the 1-hot encoding of n symbols (n bits, code i = bit i).
func OneHot(n int) encoding.Encoding {
	e := encoding.New(n, n)
	for i := range e.Codes {
		e.Codes[i] = 1 << uint(i)
	}
	return e
}

// OneHotAssignment one-hot encodes the states and every symbolic input
// and output.
func OneHotAssignment(f *kiss.FSM) encoding.Assignment {
	a := encoding.Assignment{States: OneHot(f.NumStates())}
	for _, v := range f.SymIns {
		a.SymIns = append(a.SymIns, OneHot(len(v.Values)))
	}
	for _, v := range f.SymOuts {
		a.SymOuts = append(a.SymOuts, OneHot(len(v.Values)))
	}
	return a
}

// RandomAssignment returns one random minimum-length assignment of the
// FSM's states and symbolic inputs/outputs, drawn from its own generator
// seeded with seed. Batches key each trial's seed off the trial index
// (sched.SplitSeed), so a batch produces identical assignments whether
// its trials run serially or concurrently.
func RandomAssignment(f *kiss.FSM, seed int64) encoding.Assignment {
	rng := rand.New(rand.NewSource(seed))
	a := encoding.Assignment{
		States: encode.RandomEncoding(f.NumStates(), encode.MinLength(f.NumStates()), rng),
	}
	for _, v := range f.SymIns {
		n := len(v.Values)
		a.SymIns = append(a.SymIns, encode.RandomEncoding(n, encode.MinLength(n), rng))
	}
	for _, v := range f.SymOuts {
		n := len(v.Values)
		a.SymOuts = append(a.SymOuts, encode.RandomEncoding(n, encode.MinLength(n), rng))
	}
	return a
}

// DefaultRandomTrials is the paper's batch size: number of states plus
// number of symbolic inputs.
func DefaultRandomTrials(f *kiss.FSM) int {
	return f.NumStates() + len(f.SymIns)
}

// MustangVariant selects one of MUSTANG's four weight functions.
type MustangVariant int

const (
	// MustangP is the fan-in oriented algorithm (-p): pairs of next
	// states reached from common present states attract.
	MustangP MustangVariant = iota
	// MustangN is the fan-out oriented algorithm (-n): pairs of present
	// states with common next states and common asserted outputs attract.
	MustangN
	// MustangPT and MustangNT weight pairs by transition multiplicities
	// instead of mere adjacency (-pt / -nt).
	MustangPT
	MustangNT
)

// String names the variant like MUSTANG's command line.
func (v MustangVariant) String() string {
	switch v {
	case MustangP:
		return "-p"
	case MustangN:
		return "-n"
	case MustangPT:
		return "-pt"
	case MustangNT:
		return "-nt"
	}
	return "?"
}

// Mustang computes a minimum-length state encoding with a MUSTANG-style
// attraction-weight embedding: a weight graph over state pairs is built
// from the transition structure (fan-in or fan-out oriented) and states
// are greedily placed on the hypercube so that heavy pairs land at small
// Hamming distance.
func Mustang(f *kiss.FSM, variant MustangVariant) encoding.Encoding {
	n := f.NumStates()
	w := mustangWeights(f, variant)
	bits := encode.MinLength(n)
	return weightedEmbed(n, bits, w)
}

// mustangWeights builds the pairwise attraction weights.
func mustangWeights(f *kiss.FSM, variant MustangVariant) [][]int {
	n := f.NumStates()
	w := make([][]int, n)
	for i := range w {
		w[i] = make([]int, n)
	}
	bits := encode.MinLength(n)

	// trans[u][t]: number of rows u -> t; outs[u][o]: rows from u
	// asserting output o.
	trans := make([][]int, n)
	outs := make([][]int, n)
	for i := 0; i < n; i++ {
		trans[i] = make([]int, n)
		outs[i] = make([]int, f.NO)
	}
	for _, r := range f.Rows {
		if r.Present < 0 || r.Next < 0 {
			continue
		}
		trans[r.Present][r.Next]++
		for o := 0; o < f.NO; o++ {
			if r.Out[o] == '1' {
				outs[r.Present][o]++
			}
		}
	}
	cnt := func(x int) int {
		if x == 0 {
			return 0
		}
		if variant == MustangPT || variant == MustangNT {
			return x
		}
		return 1
	}
	switch variant {
	case MustangN, MustangNT:
		// Fan-out: present states sharing next states and outputs.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				s := 0
				for t := 0; t < n; t++ {
					s += bits * cnt(trans[u][t]) * cnt(trans[v][t])
				}
				for o := 0; o < f.NO; o++ {
					s += cnt(outs[u][o]) * cnt(outs[v][o])
				}
				w[u][v], w[v][u] = s, s
			}
		}
	case MustangP, MustangPT:
		// Fan-in: next states reached from common present states.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				s := 0
				for src := 0; src < n; src++ {
					s += bits * cnt(trans[src][u]) * cnt(trans[src][v])
				}
				w[u][v], w[v][u] = s, s
			}
		}
	}
	return w
}

// weightedEmbed places n states on the bits-cube greedily: states in
// decreasing total attraction; each takes the free code minimizing the
// weighted Hamming distance to the already-placed states.
func weightedEmbed(n, bits int, w [][]int) encoding.Encoding {
	e := encoding.New(n, bits)
	total := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			total[i] += w[i][j]
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })

	space := 1 << uint(bits)
	used := make([]bool, space)
	placed := []int{}
	hamming := func(a, b uint64) int {
		x := a ^ b
		c := 0
		for x != 0 {
			c += int(x & 1)
			x >>= 1
		}
		return c
	}
	for _, u := range order {
		bestCode, bestCost := -1, 1<<62
		for c := 0; c < space; c++ {
			if used[c] {
				continue
			}
			cost := 0
			for _, v := range placed {
				cost += w[u][v] * hamming(uint64(c), e.Codes[v])
			}
			if cost < bestCost {
				bestCode, bestCost = c, cost
			}
		}
		e.Codes[u] = uint64(bestCode)
		used[bestCode] = true
		placed = append(placed, u)
	}
	return e
}

// MustangAssignment encodes states with the given variant and symbolic
// inputs with the same machinery applied to a value-cooccurrence weight
// graph (minimum length everywhere, as in Table VII).
func MustangAssignment(f *kiss.FSM, variant MustangVariant) encoding.Assignment {
	a := encoding.Assignment{States: Mustang(f, variant)}
	for vi, v := range f.SymIns {
		n := len(v.Values)
		w := make([][]int, n)
		for i := range w {
			w[i] = make([]int, n)
		}
		// Values leading to the same next state attract.
		for _, r1 := range f.Rows {
			for _, r2 := range f.Rows {
				a1, a2 := r1.SymIn[vi], r2.SymIn[vi]
				if a1 >= 0 && a2 >= 0 && a1 != a2 && r1.Next >= 0 && r1.Next == r2.Next {
					w[a1][a2]++
					w[a2][a1]++
				}
			}
		}
		a.SymIns = append(a.SymIns, weightedEmbed(n, encode.MinLength(n), w))
	}
	return a
}

// Cream is the Cappuccino/Cream-style stand-in of Table V: symbolic
// minimization derives the input constraints of its final cover FinalP,
// and encode.SatisfyAll satisfies every one of them by projection
// (non-minimum length, like Cappuccino's column-based scheme), for the
// states and for each symbolic input. The output covering graph is not
// used: no code is chosen to satisfy an output constraint.
func Cream(f *kiss.FSM, sopt symbolic.Options) (encoding.Assignment, error) {
	out, err := symbolic.Analyze(f, sopt)
	if err != nil {
		return encoding.Assignment{}, err
	}
	n := f.NumStates()
	res := encode.SatisfyAll(n, out.Problem.IC)
	a := encoding.Assignment{States: res.Enc}
	for vi := range f.SymIns {
		sres := encode.SatisfyAll(len(f.SymIns[vi].Values), out.SymIns[vi])
		a.SymIns = append(a.SymIns, sres.Enc)
	}
	return a, nil
}
