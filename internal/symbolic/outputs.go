package symbolic

import (
	"fmt"
	"sort"

	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/obs"
)

// OutputCovering derives output covering constraints for one symbolic
// output variable of the FSM — the extension to symbolically specified
// proper outputs announced in the paper's Section VII. The loop is the
// symbolic minimization of Section 6.1 applied to the values of the chosen
// output variable instead of the next states: value u must cover value v
// bitwise whenever an accepted implicant of v's on-set spills into u's.
//
// The returned edges (From covers To) feed OutEncoder (or the io
// algorithms) to choose the value codes.
func OutputCovering(f *kiss.FSM, which int, opt Options) ([]Edge, error) {
	p, c, err := minimized(f, opt)
	if err != nil {
		return nil, err
	}
	return OutputCoveringMinimized(p, c, which, opt)
}

// OutputCoveringMinimized is OutputCovering on c, the minimized cover of
// p. Like AnalyzeMinimized it only reads p and c.
func OutputCoveringMinimized(p *mvmin.Problem, c *cube.Cover, which int, opt Options) ([]Edge, error) {
	f := p.F
	if which < 0 || which >= len(f.SymOuts) {
		return nil, fmt.Errorf("symbolic: no symbolic output %d", which)
	}
	s := p.S
	base := p.SymOutBase[which]
	count := len(f.SymOuts[which].Values)

	// On-sets per value of the chosen output variable.
	onSets := make([][]cube.Cube, count)
	var other []cube.Cube
	for _, q := range c.Cubes {
		v := -1
		for j := 0; j < count; j++ {
			if s.Test(q, p.OutVar, base+j) {
				v = j
				break
			}
		}
		if v < 0 {
			other = append(other, q)
		} else {
			onSets[v] = append(onSets[v], q)
		}
	}

	order := make([]int, 0, count)
	for i := 0; i < count; i++ {
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

	// Reduced structure: inputs + (flag + every output part outside the
	// chosen group).
	total := s.Size(p.OutVar)
	rest := total - count
	redSizes := make([]int, 0, p.OutVar+1)
	for v := 0; v < p.OutVar; v++ {
		redSizes = append(redSizes, s.Size(v))
	}
	redSizes = append(redSizes, 1+rest)
	rs := cube.NewStructure(redSizes...)

	// restIndex maps output parts outside [base, base+count) to reduced
	// positions 1..rest.
	restIndex := make([]int, total)
	ri := 1
	for pt := 0; pt < total; pt++ {
		if pt >= base && pt < base+count {
			restIndex[pt] = -1
			continue
		}
		restIndex[pt] = ri
		ri++
	}
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
		for pt := 0; pt < total; pt++ {
			if restIndex[pt] > 0 && s.Test(q, p.OutVar, pt) {
				rs.Set(r, p.OutVar, restIndex[pt])
			}
		}
		return r
	}

	// One arena spans every per-value minimization over the reduced layout.
	arena := cube.GetArena(rs)
	defer cube.PutArena(arena)

	var graph []Edge
	for _, i := range order {
		on := cube.NewCover(rs)
		for _, q := range onSets[i] {
			on.Add(toReduced(q, true))
		}
		dc := cube.NewCover(rs)
		for j := 0; j < count; j++ {
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
		for _, q := range other {
			r := toReduced(q, false)
			if !rs.IsEmpty(r) {
				dc.Add(r)
			}
		}
		for _, d := range p.Dc.Cubes {
			allGroup := true
			for j := 0; j < count; j++ {
				if !s.Test(d, p.OutVar, base+j) {
					allGroup = false
					break
				}
			}
			r := toReduced(d, allGroup)
			if allGroup || !rs.IsEmpty(r) {
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
		if len(mi) >= len(onSets[i]) {
			continue // no gain: no covering relations accepted
		}
		w := len(onSets[i]) - len(mi)
		seen := make([]bool, count)
		for _, r := range mi {
			for j := 0; j < count; j++ {
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
		for j := 0; j < count; j++ {
			if seen[j] {
				covers[j][i] = true
				graph = append(graph, Edge{From: j, To: i, W: w})
			}
		}
	}
	return graph, nil
}

// OutputEncodingResult pairs a symbolic-output encoding with the covering
// edges that drove it.
type OutputEncodingResult struct {
	Enc   encoding.Encoding
	Edges []Edge
}

// EncodeSymbolicOutputs chooses codes for every symbolic output variable
// of p's machine from c, the minimized cover of p: covering constraints
// from OutputCoveringMinimized are satisfied by OutEncoder. The minimum
// length is used unless the covering DAG forces more bits.
func EncodeSymbolicOutputs(p *mvmin.Problem, c *cube.Cover, opt Options) ([]OutputEncodingResult, error) {
	sctx, sp := obs.Span(opt.Min.Ctx, "symbolic.outputs")
	opt.Min.Ctx = sctx
	defer sp.End()
	f := p.F
	var out []OutputEncodingResult
	for which := range f.SymOuts {
		edges, err := OutputCoveringMinimized(p, c, which, opt)
		if err != nil {
			return nil, err
		}
		var oc []encode.OCEdge
		for _, e := range edges {
			oc = append(oc, encode.OCEdge{U: e.From, V: e.To})
		}
		n := len(f.SymOuts[which].Values)
		enc := encode.OutEncoder(n, oc, 0)
		out = append(out, OutputEncodingResult{Enc: enc, Edges: edges})
	}
	return out, nil
}
