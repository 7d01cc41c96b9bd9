// Package symbolic implements the revisited symbolic minimization of
// Section VI-6.1: a per-next-state minimization loop that produces a
// minimal encoding-independent symbolic cover FinalP together with a
// weighted acyclic graph of output covering constraints, and packages the
// companion input constraints into the clustered (IC, OC) instance solved
// by iohybrid_code / iovariant_code.
//
// The two modifications of the paper relative to De Micheli's original
// loop are implemented: (1) every minimization carries a complete
// description of the binary outputs, with all product terms of the input
// cover not committed to the current on/off sets placed in the don't-care
// set; (2) covering relations of the i-th stage are accepted only when the
// minimization actually decreases the on-set cardinality of next state i.
package symbolic

import (
	"sort"

	"nova/internal/constraint"
	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/obs"
)

// Edge is an output covering relation: the code of From must bitwise cover
// the code of To (edge (j, i, w) of the paper's graph G with From=j, To=i).
type Edge struct {
	From, To int
	W        int
}

// Options tunes the symbolic minimization.
type Options struct {
	// Espresso options for the per-state minimizations.
	Min espresso.Options
	// SelectSmallFirst processes next states by increasing on-set size
	// instead of the default decreasing order (ablation hook).
	SelectSmallFirst bool
}

// Output is the result of symbolic minimization.
type Output struct {
	P      *mvmin.Problem
	FinalP *cube.Cover
	Graph  []Edge
	Order  []int // the next-state processing order used
	// Problem is the clustered ordered-face-embedding instance for the
	// state variable.
	Problem encode.IOProblem
	// SymIns carries the input constraints of each symbolic input
	// variable extracted from FinalP.
	SymIns [][]constraint.Constraint
	// InitialCubes / FinalCubes document the gain of the symbolic loop.
	InitialCubes, FinalCubes int
}

// Analyze runs the full symbolic minimization pipeline on the FSM: step
// 0, the disjoint minimization of the symbolic cover, then
// AnalyzeMinimized on its result.
func Analyze(f *kiss.FSM, opt Options) (*Output, error) {
	p, c, err := minimized(f, opt)
	if err != nil {
		return nil, err
	}
	return AnalyzeMinimized(p, c, opt), nil
}

// minimized builds the FSM's multiple-valued cover and minimizes it.
func minimized(f *kiss.FSM, opt Options) (*mvmin.Problem, *cube.Cover, error) {
	p, err := mvmin.Build(f)
	if err != nil {
		return nil, nil, err
	}
	return p, p.Minimize(opt.Min), nil
}

// AnalyzeMinimized runs the symbolic minimization loop on c, the
// minimized cover of p (p.Minimize with the espresso options of opt). It
// only reads p and c, so one minimization can serve any number of
// concurrent analyses.
func AnalyzeMinimized(p *mvmin.Problem, c *cube.Cover, opt Options) *Output {
	sctx, sp := obs.Span(opt.Min.Ctx, "symbolic.analyze")
	opt.Min.Ctx = sctx
	defer sp.End()
	f := p.F
	ns := f.NumStates()
	s := p.S

	out := &Output{P: p, InitialCubes: c.Len()}

	// On_k: implicants of the k-th next state, with binary outputs
	// unchanged. Cubes asserting no next state are pure output cubes.
	onSets := make([][]cube.Cube, ns)
	var pure []cube.Cube
	for _, q := range c.Cubes {
		st := -1
		for j := 0; j < ns; j++ {
			if s.Test(q, p.OutVar, j) {
				st = j
				break
			}
		}
		if st < 0 {
			pure = append(pure, q)
		} else {
			onSets[st] = append(onSets[st], q)
		}
	}

	// Processing order (step 4's "select a symbol").
	order := make([]int, 0, ns)
	for i := 0; i < ns; i++ {
		if len(onSets[i]) > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		if opt.SelectSmallFirst {
			return len(onSets[order[a]]) < len(onSets[order[b]])
		}
		return len(onSets[order[a]]) > len(onSets[order[b]])
	})
	out.Order = order

	// adjacency: covers[u] = set of v such that u covers v (arc u -> v).
	covers := make([][]bool, ns)
	for i := range covers {
		covers[i] = make([]bool, ns)
	}
	hasPath := func(from, to int) bool {
		if from == to {
			return false
		}
		seen := make([]bool, ns)
		stack := []int{from}
		seen[from] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < ns; v++ {
				if covers[u][v] && !seen[v] {
					if v == to {
						return true
					}
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		return false
	}

	// The per-state minimization works over a reduced structure: the same
	// input variables, with an output part holding the state-i flag
	// followed by every non-next-state output part (binary outputs and
	// 1-hot symbolic output groups).
	rest := s.Size(p.OutVar) - ns
	redSizes := make([]int, 0, p.OutVar+1)
	for v := 0; v < p.OutVar; v++ {
		redSizes = append(redSizes, s.Size(v))
	}
	redSizes = append(redSizes, 1+rest)
	rs := cube.NewStructure(redSizes...)

	toReduced := func(q cube.Cube, flag bool) cube.Cube {
		r := rs.NewCube()
		for v := 0; v < p.OutVar; v++ {
			for pt := 0; pt < s.Size(v); pt++ {
				if s.Test(q, v, pt) {
					rs.Set(r, v, pt)
				}
			}
		}
		if flag {
			rs.Set(r, p.OutVar, 0)
		}
		for o := 0; o < rest; o++ {
			if s.Test(q, p.OutVar, ns+o) {
				rs.Set(r, p.OutVar, 1+o)
			}
		}
		return r
	}
	fromReduced := func(r cube.Cube, state int) cube.Cube {
		q := s.NewCube()
		for v := 0; v < p.OutVar; v++ {
			for pt := 0; pt < rs.Size(v); pt++ {
				if rs.Test(r, v, pt) {
					s.Set(q, v, pt)
				}
			}
		}
		if state >= 0 && rs.Test(r, p.OutVar, 0) {
			s.Set(q, p.OutVar, state)
		}
		for o := 0; o < rest; o++ {
			if rs.Test(r, p.OutVar, 1+o) {
				s.Set(q, p.OutVar, ns+o)
			}
		}
		return q
	}

	// Global don't-cares translated to the reduced structure once per
	// state (flag handling depends on i).
	gain := make([]int, ns)
	P := cube.NewCover(s)
	for _, q := range pure {
		P.Add(q.Copy())
	}

	// All per-state minimizations run over the same reduced layout: hold
	// one scratch arena across the loop so cofactor buffers are shared
	// between stages.
	arena := cube.GetArena(rs)
	defer cube.PutArena(arena)

	for _, i := range order {
		on := cube.NewCover(rs)
		for _, q := range onSets[i] {
			on.Add(toReduced(q, true))
		}
		dc := cube.NewCover(rs)
		// Dc_i: On_j for every j with no path i -> j (the flag may be
		// asserted there: j would then have to cover i). The binary
		// outputs of every other product term are in the DC set as well
		// (modification 1: complete description of the binary outputs).
		for j := 0; j < ns; j++ {
			if j == i {
				continue
			}
			free := !hasPath(i, j)
			for _, q := range onSets[j] {
				r := toReduced(q, free)
				if free || !rs.IsEmpty(r) {
					dc.Add(r)
				}
			}
		}
		for _, q := range pure {
			dc.Add(toReduced(q, false))
		}
		// Unspecified-space and per-output don't-cares from the FSM.
		for _, d := range p.Dc.Cubes {
			allNext := true
			for j := 0; j < ns; j++ {
				if !s.Test(d, p.OutVar, j) {
					allNext = false
					break
				}
			}
			r := toReduced(d, allNext)
			if !rs.IsEmpty(r) {
				dc.Add(r)
			}
		}
		mb := espresso.MinimizeWith(on, dc, opt.Min, arena)
		var mi []cube.Cube
		for _, r := range mb.Cubes {
			if rs.Test(r, p.OutVar, 0) {
				mi = append(mi, r)
			}
		}
		if len(mi) < len(onSets[i]) {
			// Accept the stage (modification 2).
			gain[i] = len(onSets[i]) - len(mi)
			seen := map[int]bool{}
			for _, r := range mi {
				for j := 0; j < ns; j++ {
					if j == i || seen[j] || hasPath(i, j) || covers[j][i] {
						continue
					}
					for _, q := range onSets[j] {
						if rs.Intersects(r, toReduced(q, true)) {
							seen[j] = true
							break
						}
					}
				}
			}
			for j := 0; j < ns; j++ {
				if seen[j] {
					covers[j][i] = true
					out.Graph = append(out.Graph, Edge{From: j, To: i, W: gain[i]})
				}
			}
			for _, r := range mb.Cubes {
				P.Add(fromReduced(r, i))
			}
		} else {
			for _, q := range onSets[i] {
				P.Add(q.Copy())
			}
		}
	}

	// Step 10: FinalP = minimize(P). A full expand would need the off-sets
	// implied by G, so the final cleanup is containment + irredundancy
	// against the global DC (never enlarging cubes, hence safe).
	P.SingleCubeContainment()
	espresso.Irredundant(P, p.Dc)
	out.FinalP = P
	out.FinalCubes = P.Len()

	out.Problem = buildIOProblem(p, P, out.Graph, gain)
	for vi := range f.SymIns {
		out.SymIns = append(out.SymIns, varConstraints(p, P, p.SymVars[vi], len(f.SymIns[vi].Values)))
	}
	return out
}

// buildIOProblem clusters the constraints of FinalP per next state.
func buildIOProblem(p *mvmin.Problem, finalP *cube.Cover, graph []Edge, gain []int) encode.IOProblem {
	ns := p.F.NumStates()
	s := p.S
	prob := encode.IOProblem{N: ns}

	perState := make([][]constraint.Constraint, ns)
	for _, q := range finalP.Cubes {
		parts := s.VarParts(q, p.StateVar)
		if len(parts) < 2 || len(parts) == ns {
			continue
		}
		set := constraint.NewSet(ns)
		for _, pt := range parts {
			set.Add(pt)
		}
		ic := constraint.Constraint{Set: set, Weight: 1}
		prob.IC = append(prob.IC, ic)
		st := -1
		for j := 0; j < ns; j++ {
			if s.Test(q, p.OutVar, j) {
				st = j
				break
			}
		}
		if st < 0 {
			prob.ICo = append(prob.ICo, ic)
		} else {
			perState[st] = append(perState[st], ic)
		}
	}

	ocPer := make([][]encode.OCEdge, ns)
	for _, e := range graph {
		ocPer[e.To] = append(ocPer[e.To], encode.OCEdge{U: e.From, V: e.To})
	}
	for i := 0; i < ns; i++ {
		if len(ocPer[i]) == 0 && len(perState[i]) == 0 {
			continue
		}
		w := gain[i]
		if w == 0 {
			w = constraint.TotalWeight(constraint.Normalize(perState[i]))
		}
		prob.Clusters = append(prob.Clusters, encode.Cluster{
			State: i,
			IC:    constraint.Normalize(perState[i]),
			OC:    ocPer[i],
			W:     w,
		})
	}
	return prob
}

// varConstraints extracts the constraints of one symbolic input variable
// from FinalP.
func varConstraints(p *mvmin.Problem, finalP *cube.Cover, v, n int) []constraint.Constraint {
	var raw []constraint.Constraint
	for _, q := range finalP.Cubes {
		parts := p.S.VarParts(q, v)
		if len(parts) < 2 || len(parts) == n {
			continue
		}
		set := constraint.NewSet(n)
		for _, pt := range parts {
			set.Add(pt)
		}
		raw = append(raw, constraint.Constraint{Set: set, Weight: 1})
	}
	return constraint.Normalize(raw)
}
