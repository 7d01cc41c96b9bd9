package symbolic

import (
	"fmt"

	"nova/internal/cube"
	"nova/internal/encode"
	"nova/internal/encoding"
	"nova/internal/kiss"
	"nova/internal/mvmin"
	"nova/internal/obs"
)

// OutputCovering derives output covering constraints for one symbolic
// output variable of the FSM — the extension to symbolically specified
// proper outputs announced in the paper's Section VII. The loop is the
// symbolic minimization of Section 6.1 run over the values of the chosen
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
	if which < 0 || which >= len(p.F.SymOuts) {
		return nil, fmt.Errorf("symbolic: no symbolic output %d", which)
	}
	return minimizeGroup(p, c, p.SymOutBase[which], len(p.F.SymOuts[which].Values), opt).graph, nil
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
