// Package symbolic implements the revisited symbolic minimization of
// Section VI-6.1: a minimization loop over one group of output values
// that derives a weighted acyclic graph of output covering constraints
// among them. Over the next states it also produces the minimal
// encoding-independent symbolic cover FinalP and packages the companion
// input constraints into the clustered (IC, OC) instance solved by
// iohybrid_code / iovariant_code; over the values of a symbolic proper
// output (the extension of Section VII) its edges drive out_encoder.
//
// The two modifications of the paper relative to De Micheli's original
// loop are implemented: (1) every minimization carries a complete
// description of the binary outputs, with all product terms of the input
// cover not committed to the current on/off sets placed in the don't-care
// set; (2) covering relations of the i-th stage are accepted only when the
// minimization actually decreases the on-set cardinality of value i.
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
	// Espresso options for the per-value minimizations.
	Min espresso.Options
	// SelectSmallFirst processes values by increasing on-set size
	// instead of the default decreasing order (ablation hook).
	SelectSmallFirst bool
}

// Output is the result of symbolic minimization over the next states.
type Output struct {
	FinalP *cube.Cover
	Graph  []Edge
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

// AnalyzeMinimized runs the symbolic minimization loop over the next
// states on c, the minimized cover of p (p.Minimize with the espresso
// options of opt). It only reads p and c, so one minimization can serve
// any number of concurrent analyses.
func AnalyzeMinimized(p *mvmin.Problem, c *cube.Cover, opt Options) *Output {
	sctx, sp := obs.Span(opt.Min.Ctx, "symbolic.analyze")
	opt.Min.Ctx = sctx
	defer sp.End()
	f := p.F
	g := minimizeGroup(p, c, 0, f.NumStates(), opt)

	// P: the cubes asserting no next state, then per next state in
	// processing order its accepted stage's cover, or its own on-set
	// when the stage was rejected.
	P := cube.NewCover(p.S)
	for _, q := range g.other {
		P.Add(q.Copy())
	}
	for _, i := range g.order {
		if g.mins[i] == nil {
			for _, q := range g.onSets[i] {
				P.Add(q.Copy())
			}
			continue
		}
		for _, r := range g.mins[i].Cubes {
			P.Add(g.fromReduced(r, i))
		}
	}

	// Step 10: FinalP = minimize(P). A full expand would need the off-sets
	// implied by G, so the final cleanup is containment + irredundancy
	// against the global DC (never enlarging cubes, hence safe).
	P.SingleCubeContainment()
	espresso.Irredundant(P, p.Dc)
	out := &Output{FinalP: P, Graph: g.graph, InitialCubes: c.Len(), FinalCubes: P.Len()}
	out.Problem = buildIOProblem(p, P, g.graph, g.gain)
	for vi := range f.SymIns {
		out.SymIns = append(out.SymIns, p.VarConstraints(P, p.SymVars[vi], len(f.SymIns[vi].Values)))
	}
	return out
}

// group is the outcome of the symbolic minimization loop over the output
// values [base, base+count) of p.OutVar.
type group struct {
	p           *mvmin.Problem
	base, count int
	// rs is the reduced structure of every stage: the input variables of
	// p.S, then an output part holding the flag of the stage's value
	// followed by every output part outside the group.
	rs     *cube.Structure
	order  []int         // values with a nonempty on-set, in processing order
	onSets [][]cube.Cube // per value: the cubes of c asserting it
	other  []cube.Cube   // the cubes of c asserting no value of the group
	graph  []Edge
	gain   []int         // per value: the on-set cubes its accepted stage saved
	mins   []*cube.Cover // per value: its accepted stage's cover over rs, else nil
}

// minimizeGroup runs the symbolic minimization loop on c, the minimized
// cover of p, over the output values [base, base+count) of p.OutVar: the
// next states (0, #states) or the values of one symbolic output. Value
// i's stage minimizes its on-set with the flag standing for i against a
// don't-care set of the on-sets of the values it may be covered by, the
// rest of c and p's don't-cares; an implicant of an accepted stage that
// meets value j's on-set makes j cover i.
func minimizeGroup(p *mvmin.Problem, c *cube.Cover, base, count int, opt Options) *group {
	s := p.S
	g := &group{p: p, base: base, count: count,
		onSets: make([][]cube.Cube, count), gain: make([]int, count), mins: make([]*cube.Cover, count)}
	asserts := func(q cube.Cube, j int) bool { return s.Test(q, p.OutVar, base+j) }

	// On_j: the implicants asserting value j, other output parts
	// unchanged.
	for _, q := range c.Cubes {
		v := -1
		for j := 0; j < count; j++ {
			if asserts(q, j) {
				v = j
				break
			}
		}
		if v < 0 {
			g.other = append(g.other, q)
		} else {
			g.onSets[v] = append(g.onSets[v], q)
		}
	}

	// Processing order (step 4's "select a symbol").
	for i := 0; i < count; i++ {
		if len(g.onSets[i]) > 0 {
			g.order = append(g.order, i)
		}
	}
	sort.SliceStable(g.order, func(a, b int) bool {
		if opt.SelectSmallFirst {
			return len(g.onSets[g.order[a]]) < len(g.onSets[g.order[b]])
		}
		return len(g.onSets[g.order[a]]) > len(g.onSets[g.order[b]])
	})

	// adjacency: covers[u] = set of v such that u covers v (arc u -> v).
	covers := make([][]bool, count)
	for i := range covers {
		covers[i] = make([]bool, count)
	}
	hasPath := func(from, to int) bool {
		if from == to {
			return false
		}
		seen := make([]bool, count)
		stack := []int{from}
		seen[from] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < count; v++ {
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

	redSizes := make([]int, 0, p.OutVar+1)
	for v := 0; v < p.OutVar; v++ {
		redSizes = append(redSizes, s.Size(v))
	}
	redSizes = append(redSizes, 1+s.Size(p.OutVar)-count)
	g.rs = cube.NewStructure(redSizes...)
	rs := g.rs

	// All stages run over the same reduced layout: hold one scratch arena
	// across the loop so cofactor buffers are shared between stages.
	arena := cube.NewArena(rs)

	for _, i := range g.order {
		on := cube.NewCover(rs)
		for _, q := range g.onSets[i] {
			on.Add(g.toReduced(q, true))
		}
		dc := cube.NewCover(rs)
		// Dc_i: On_j for every j with no path i -> j (the flag may be
		// asserted there: j would then have to cover i). The other output
		// parts of every other product term are in the DC set as well
		// (modification 1: complete description of the binary outputs).
		for j := 0; j < count; j++ {
			if j == i {
				continue
			}
			free := !hasPath(i, j)
			for _, q := range g.onSets[j] {
				r := g.toReduced(q, free)
				if free || !rs.IsEmpty(r) {
					dc.Add(r)
				}
			}
		}
		for _, q := range g.other {
			dc.Add(g.toReduced(q, false))
		}
		// Unspecified-space and per-output don't-cares from the FSM: the
		// flag is free where every value of the group is.
		for _, d := range p.Dc.Cubes {
			all := true
			for j := 0; j < count; j++ {
				if !asserts(d, j) {
					all = false
					break
				}
			}
			if r := g.toReduced(d, all); !rs.IsEmpty(r) {
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
		if len(mi) >= len(g.onSets[i]) {
			continue // no gain: no covering relations accepted (modification 2)
		}
		g.gain[i] = len(g.onSets[i]) - len(mi)
		g.mins[i] = mb
		seen := make([]bool, count)
		for _, r := range mi {
			for j := 0; j < count; j++ {
				if j == i || seen[j] || hasPath(i, j) || covers[j][i] {
					continue
				}
				for _, q := range g.onSets[j] {
					if rs.Intersects(r, g.toReduced(q, true)) {
						seen[j] = true
						break
					}
				}
			}
		}
		for j := 0; j < count; j++ {
			if seen[j] {
				covers[j][i] = true
				g.graph = append(g.graph, Edge{From: j, To: i, W: g.gain[i]})
			}
		}
	}
	return g
}

// toReduced maps cube q of p.S onto g.rs, asserting the flag when flag is
// set. Output part pt outside the group lands on reduced part 1+pt below
// the group and 1+pt-count above it.
func (g *group) toReduced(q cube.Cube, flag bool) cube.Cube {
	s, rs, ov := g.p.S, g.rs, g.p.OutVar
	r := rs.NewCube()
	for v := 0; v < ov; v++ {
		for pt := 0; pt < s.Size(v); pt++ {
			if s.Test(q, v, pt) {
				rs.Set(r, v, pt)
			}
		}
	}
	if flag {
		rs.Set(r, ov, 0)
	}
	for pt := 0; pt < g.base; pt++ {
		if s.Test(q, ov, pt) {
			rs.Set(r, ov, 1+pt)
		}
	}
	for pt := g.base + g.count; pt < s.Size(ov); pt++ {
		if s.Test(q, ov, pt) {
			rs.Set(r, ov, 1+pt-g.count)
		}
	}
	return r
}

// fromReduced is the inverse of toReduced, with the flag asserting value
// i.
func (g *group) fromReduced(r cube.Cube, i int) cube.Cube {
	s, rs, ov := g.p.S, g.rs, g.p.OutVar
	q := s.NewCube()
	for v := 0; v < ov; v++ {
		for pt := 0; pt < rs.Size(v); pt++ {
			if rs.Test(r, v, pt) {
				s.Set(q, v, pt)
			}
		}
	}
	if rs.Test(r, ov, 0) {
		s.Set(q, ov, g.base+i)
	}
	for pt := 0; pt < g.base; pt++ {
		if rs.Test(r, ov, 1+pt) {
			s.Set(q, ov, pt)
		}
	}
	for pt := g.base + g.count; pt < s.Size(ov); pt++ {
		if rs.Test(r, ov, 1+pt-g.count) {
			s.Set(q, ov, pt)
		}
	}
	return q
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
