package encode

import (
	"math/rand"
	"sort"

	"nova/internal/constraint"
	"nova/internal/encoding"
)

// Cluster groups the constraints associated with one next state by
// symbolic minimization (Section 6.2): OC_i, the output covering edges
// into state State; IC_i, the companion input constraints of state State
// in FinalP; and the gain W obtained when the whole cluster is satisfied.
type Cluster struct {
	State int
	IC    []constraint.Constraint
	OC    []OCEdge
	W     int
}

// IOProblem is an ordered face hypercube embedding instance: the symbols to
// encode, all input constraints (including the output-only companion set
// IC_o), and the clustered output constraints.
type IOProblem struct {
	N        int
	IC       []constraint.Constraint // complete input constraint set
	ICo      []constraint.Constraint // constraints related to proper outputs only
	Clusters []Cluster
}

// TotalOC returns the number of output covering edges over all clusters.
func (p IOProblem) TotalOC() int {
	t := 0
	for _, cl := range p.Clusters {
		t += len(cl.OC)
	}
	return t
}

// IOHybrid implements iohybrid_code (Section 6.2.1), the input-biased
// algorithm: satisfy as many input constraints as possible at the minimum
// length (cycle of semiexact_code), then greedily add whole output-
// constraint clusters in decreasing weight (io_semiexact_code), then raise
// the length toward bits with project_code for the leftover input
// constraints. When there are no input constraints at all the dedicated
// out_encoder runs instead.
func IOHybrid(p IOProblem, bits int, opt HybridOptions) Result {
	return ioEncode(p, bits, opt, false)
}

// IOVariant implements iovariant_code (Section 6.2.2): the i-th cluster is
// accepted only if both IC_i and OC_i are satisfiable together. The paper
// reports iohybrid_code outperforms this variant; both are provided for
// the ablation study.
func IOVariant(p IOProblem, bits int, opt HybridOptions) Result {
	return ioEncode(p, bits, opt, true)
}

func ioEncode(p IOProblem, bits int, opt HybridOptions, variant bool) Result {
	opt.defaults()
	cubeDim := MinLength(p.N)
	allIC := prepConstraints(opt.Ctx, p.IC)
	if bits <= 0 {
		bits = cubeDim
	}
	var res Result
	res.TotalOC = p.TotalOC()
	if len(allIC) == 0 {
		enc := OutEncoder(p.N, allOC(p), bits)
		res.Enc = enc
		score(&res, allIC)
		res.SatisfiedOC = countOC(enc, allOC(p))
		return res
	}

	// Stage 1: input constraints. iohybrid cycles over the whole IC set,
	// iovariant over the output-only companion set IC_o.
	stage1 := allIC
	if variant {
		stage1 = constraint.Normalize(p.ICo)
	}
	chain := semiexactChain(opt, p.N, stage1, cubeDim)
	res.Work += chain.work
	if chain.err != nil {
		res.Err = chain.err
		return res
	}
	sic, ric := chain.sic, chain.ric
	enc, have := chain.enc, chain.have

	// Stage 2: clusters in decreasing weight.
	clusters := append([]Cluster(nil), p.Clusters...)
	sort.SliceStable(clusters, func(i, j int) bool { return clusters[i].W > clusters[j].W })
	var soc []OCEdge
	for _, cl := range clusters {
		if len(cl.OC) == 0 && !variant {
			continue
		}
		if err := ctxErr(opt.Ctx); err != nil {
			res.Err = err
			return res
		}
		trialOC := append(append([]OCEdge(nil), soc...), cl.OC...)
		trialIC := sic
		if variant {
			trialIC = append(append([]constraint.Constraint(nil), sic...), notIn(cl.IC, sic)...)
		}
		e, ok, w := semiexact(opt.Ctx, p.N, trialIC, cubeDim, opt.MaxWork, trialOC)
		res.Work += w
		if ok {
			enc, have = e, true
			soc = trialOC
			if variant {
				sic = trialIC
				ric = notIn(ric, cl.IC)
			}
		} else if variant {
			ric = append(ric, notIn(cl.IC, ric)...)
		}
	}

	if !have {
		rng := rand.New(rand.NewSource(opt.Seed + 1))
		enc = RandomEncoding(p.N, cubeDim, rng)
	}

	// Stage 3: projection for leftover input constraints.
	for len(ric) > 0 && cubeDim < bits {
		cubeDim++
		enc, sic, ric = projectCode(enc, sic, ric, cubeDim)
	}
	res.Enc = enc
	score(&res, allIC)
	res.SatisfiedOC = countOC(enc, allOC(p))
	return res
}

func allOC(p IOProblem) []OCEdge {
	var out []OCEdge
	for _, cl := range p.Clusters {
		out = append(out, cl.OC...)
	}
	return out
}

func countOC(e encoding.Encoding, oc []OCEdge) int {
	n := 0
	for _, edge := range oc {
		if OCSatisfied(e, edge) {
			n++
		}
	}
	return n
}

// notIn returns the constraints of a that are not (set-)present in b.
func notIn(a, b []constraint.Constraint) []constraint.Constraint {
	var out []constraint.Constraint
	for _, c := range a {
		found := false
		for _, d := range b {
			if c.Set.Equal(d.Set) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, c)
		}
	}
	return out
}

// OutEncoder implements out_encoder: an encoding satisfying a set of
// output covering edges only (used when IC = Φ). States are processed in
// reverse topological order of the covering DAG; each state's code is the
// bitwise OR of the codes it must cover, disambiguated within the smallest
// sufficient width (grown beyond bits when needed).
func OutEncoder(n int, oc []OCEdge, bits int) encoding.Encoding {
	if bits <= 0 {
		bits = MinLength(n)
	}
	covers := make([][]int, n) // covers[u] = list of v with u > v
	indeg := make([]int, n)    // number of states u must cover
	pred := make([][]int, n)   // pred[v] = states covering v
	for _, e := range oc {
		covers[e.U] = append(covers[e.U], e.V)
		indeg[e.U]++
		pred[e.V] = append(pred[e.V], e.U)
	}
	// Reverse topological order: states covering nothing first.
	order := make([]int, 0, n)
	deg := append([]int(nil), indeg...)
	queue := []int{}
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range pred[v] {
			deg[u]--
			if deg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) < n {
		// Cyclic covering requirements are unsatisfiable; fall back to
		// natural codes for the remainder.
		seen := map[int]bool{}
		for _, v := range order {
			seen[v] = true
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				order = append(order, i)
			}
		}
	}
	w := bits
	codes := make([]uint64, n)
	usedBy := map[uint64]int{}
	for i := range codes {
		codes[i] = ^uint64(0) // unassigned marker
	}
	for _, u := range order {
		var base uint64
		for _, v := range covers[u] {
			if codes[v] != ^uint64(0) {
				base |= codes[v]
			}
		}
		assigned := false
		for !assigned {
			for c := base; c < 1<<uint(w); c++ {
				if c&base != base {
					continue
				}
				if _, taken := usedBy[c]; taken {
					continue
				}
				codes[u] = c
				usedBy[c] = u
				assigned = true
				break
			}
			if !assigned {
				w++ // widen and retry; previously assigned codes remain valid
			}
		}
	}
	e := encoding.New(n, w)
	copy(e.Codes, codes)
	return e
}
