package mvmin

import (
	"fmt"

	"nova/internal/cube"
	"nova/internal/encoding"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/obs"
)

// Encoded is the two-level Boolean representation of an FSM under a code
// assignment: binary inputs are the proper inputs, the encoded symbolic
// inputs, then the present-state bits; outputs are the next-state bits
// followed by the proper outputs.
type Encoded struct {
	F   *kiss.FSM
	Asg encoding.Assignment
	S   *cube.Structure
	On  *cube.Cover
	Dc  *cube.Cover
	// NIn is the number of binary input variables of the PLA
	// (proper + encoded symbolic + state bits); NOut the output count.
	NIn, NOut int
}

// EncodePLA translates the FSM and assignment into on/dc covers over the
// encoded binary space: Build followed by the Problem's EncodePLA.
func EncodePLA(f *kiss.FSM, asg encoding.Assignment) (*Encoded, error) {
	p, err := Build(f)
	if err != nil {
		return nil, err
	}
	return p.EncodePLA(asg)
}

// EncodePLA translates p's machine and the assignment into on/dc covers
// over the encoded binary space. Vertices of the state (and symbolic
// input) bit space that are not the code of any value are don't-cares, as
// are the (input, state) combinations left unspecified by the table,
// which come from p's don't-care cover. p is only read, so one Problem
// serves every assignment of its machine, concurrently too.
func (p *Problem) EncodePLA(asg encoding.Assignment) (*Encoded, error) {
	f := p.F
	if err := asg.Validate(); err != nil {
		return nil, err
	}
	if len(asg.States.Codes) != f.NumStates() {
		return nil, fmt.Errorf("mvmin: %d state codes for %d states", len(asg.States.Codes), f.NumStates())
	}
	if len(asg.SymIns) != len(f.SymIns) {
		return nil, fmt.Errorf("mvmin: %d symbolic encodings for %d symbolic inputs", len(asg.SymIns), len(f.SymIns))
	}
	for i, e := range asg.SymIns {
		if len(e.Codes) != len(f.SymIns[i].Values) {
			return nil, fmt.Errorf("mvmin: symbolic input %d has %d codes for %d values", i, len(e.Codes), len(f.SymIns[i].Values))
		}
	}
	if len(asg.SymOuts) != len(f.SymOuts) {
		return nil, fmt.Errorf("mvmin: %d symbolic output encodings for %d symbolic outputs", len(asg.SymOuts), len(f.SymOuts))
	}
	for i, e := range asg.SymOuts {
		if len(e.Codes) != len(f.SymOuts[i].Values) {
			return nil, fmt.Errorf("mvmin: symbolic output %d has %d codes for %d values", i, len(e.Codes), len(f.SymOuts[i].Values))
		}
	}
	sb := asg.States.Bits
	nin := f.NI + asg.InputBits() + sb
	nout := sb + f.NO + asg.OutputBits()
	sizes := make([]int, nin+1)
	for i := range sizes[:nin] {
		sizes[i] = 2
	}
	sizes[nin] = nout
	s := cube.NewStructure(sizes...)
	e := &Encoded{F: f, Asg: asg, S: s, NIn: nin, NOut: nout}
	e.On = cube.NewCover(s)
	e.Dc = cube.NewCover(s)

	symBase := make([]int, len(f.SymIns)) // first bit var of each symbolic input
	base := f.NI
	for i, enc := range asg.SymIns {
		symBase[i] = base
		base += enc.Bits
	}
	stateBase := base // first state-bit variable

	setCode := func(c cube.Cube, baseVar, bits int, code uint64) {
		for b := 0; b < bits; b++ {
			if code&(1<<uint(b)) != 0 {
				s.Set(c, baseVar+b, 1)
			} else {
				s.Set(c, baseVar+b, 0)
			}
		}
	}

	for _, r := range f.Rows {
		c := s.NewCube()
		for i := 0; i < f.NI; i++ {
			switch r.In[i] {
			case '0':
				s.Set(c, i, 0)
			case '1':
				s.Set(c, i, 1)
			default:
				s.SetAll(c, i)
			}
		}
		for j, v := range r.SymIn {
			if v < 0 {
				for b := 0; b < asg.SymIns[j].Bits; b++ {
					s.SetAll(c, symBase[j]+b)
				}
			} else {
				setCode(c, symBase[j], asg.SymIns[j].Bits, asg.SymIns[j].Codes[v])
			}
		}
		if r.Present < 0 {
			// Any present state: one cube per state code (the face over
			// all codes may include non-code vertices, which are DC, so a
			// single spanning cube would be sound for the on-set but we
			// keep per-state cubes so row semantics stay exact).
			for st := range f.States {
				cc := c.Copy()
				setCode(cc, stateBase, sb, asg.States.Codes[st])
				rr := r
				rr.Present = st
				addOneFor(e, s, rr, cc, nin, sb, asg)
			}
			continue
		}
		setCode(c, stateBase, sb, asg.States.Codes[r.Present])
		addOneFor(e, s, r, c, nin, sb, asg)
	}

	// DC 1: state-bit patterns that are no state's code (similarly for
	// each symbolic input's bit field) are free for every output.
	addNonCodeDC(e, stateBase, asg.States)
	for j, enc := range asg.SymIns {
		addNonCodeDC(e, symBase[j], enc)
	}

	// DC 2: (input, state) combinations unspecified in the symbolic table.
	for _, d := range p.Dc.Cubes {
		if !p.S.VarFull(d, p.OutVar) {
			continue // per-output DCs were added with the rows
		}
		e.addSymbolicDC(p, d, symBase, stateBase)
	}
	return e, nil
}

// addOneFor mirrors the addOne closure for the expanded any-state rows.
func addOneFor(e *Encoded, s *cube.Structure, r kiss.Row, c cube.Cube, nin, sb int, asg encoding.Assignment) {
	on := c.Copy()
	dc := c.Copy()
	onAny, dcAny := false, false
	if r.Next >= 0 {
		code := asg.States.Codes[r.Next]
		for b := 0; b < sb; b++ {
			if code&(1<<uint(b)) != 0 {
				s.Set(on, nin, b)
				onAny = true
			}
		}
	} else {
		for b := 0; b < sb; b++ {
			s.Set(dc, nin, b)
			dcAny = true
		}
	}
	for o := 0; o < e.F.NO; o++ {
		switch r.Out[o] {
		case '1':
			s.Set(on, nin, sb+o)
			onAny = true
		case '-':
			s.Set(dc, nin, sb+o)
			dcAny = true
		}
	}
	base := sb + e.F.NO
	for j, v := range r.SymOut {
		enc := asg.SymOuts[j]
		if v >= 0 {
			code := enc.Codes[v]
			for b := 0; b < enc.Bits; b++ {
				if code&(1<<uint(b)) != 0 {
					s.Set(on, nin, base+b)
					onAny = true
				}
			}
		} else {
			for b := 0; b < enc.Bits; b++ {
				s.Set(dc, nin, base+b)
				dcAny = true
			}
		}
		base += enc.Bits
	}
	if onAny {
		e.On.Add(on)
	}
	if dcAny {
		e.Dc.Add(dc)
	}
}

// addNonCodeDC adds the complement of the used code vertices of one bit
// field, crossed with everything else, to the don't-care cover.
func addNonCodeDC(e *Encoded, baseVar int, enc encoding.Encoding) {
	if enc.Bits == 0 {
		return
	}
	sizes := make([]int, enc.Bits)
	for i := range sizes {
		sizes[i] = 2
	}
	bs := cube.NewStructure(sizes...)
	codes := cube.NewCover(bs)
	for _, code := range enc.Codes {
		c := bs.NewCube()
		for b := 0; b < enc.Bits; b++ {
			if code&(1<<uint(b)) != 0 {
				bs.Set(c, b, 1)
			} else {
				bs.Set(c, b, 0)
			}
		}
		codes.Add(c)
	}
	for _, c := range codes.Complement().Cubes {
		d := e.S.FullCube()
		for b := 0; b < enc.Bits; b++ {
			e.S.ClearAll(d, baseVar+b)
			for q := 0; q < 2; q++ {
				if bs.Test(c, b, q) {
					e.S.Set(d, baseVar+b, q)
				}
			}
		}
		e.Dc.Add(d)
	}
}

// addSymbolicDC translates one full-output symbolic don't-care cube into
// the encoded space, expanding multiple-valued literals over the member
// codes (full literals become full bit fields, covered jointly with the
// non-code DC).
func (e *Encoded) addSymbolicDC(p *Problem, d cube.Cube, symBase []int, stateBase int) {
	s := e.S
	f := e.F
	sb := e.Asg.States.Bits

	// Recursive expansion over the symbolic variables with partial
	// literals.
	type mvVar struct {
		pvar, bits, baseVar int
		enc                 encoding.Encoding
	}
	vars := []mvVar{{p.StateVar, sb, stateBase, e.Asg.States}}
	for j := range f.SymIns {
		vars = append(vars, mvVar{p.SymVars[j], e.Asg.SymIns[j].Bits, symBase[j], e.Asg.SymIns[j]})
	}

	base := s.NewCube()
	for i := 0; i < f.NI; i++ {
		for q := 0; q < 2; q++ {
			if p.S.Test(d, i, q) {
				s.Set(base, i, q)
			}
		}
	}
	s.SetAll(base, e.NIn) // all outputs DC

	var rec func(i int, c cube.Cube)
	rec = func(i int, c cube.Cube) {
		if i == len(vars) {
			e.Dc.Add(c.Copy())
			return
		}
		v := vars[i]
		parts := p.S.VarParts(d, v.pvar)
		if len(parts) == p.S.Size(v.pvar) {
			// Full literal: all bit patterns (codes and non-codes alike).
			cc := c.Copy()
			for b := 0; b < v.bits; b++ {
				s.SetAll(cc, v.baseVar+b)
			}
			rec(i+1, cc)
			return
		}
		for _, q := range parts {
			cc := c.Copy()
			code := v.enc.Codes[q]
			for b := 0; b < v.bits; b++ {
				if code&(1<<uint(b)) != 0 {
					s.Set(cc, v.baseVar+b, 1)
				} else {
					s.Set(cc, v.baseVar+b, 0)
				}
			}
			rec(i+1, cc)
		}
	}
	rec(0, base)
}

// Minimize returns the minimized encoded cover.
func (e *Encoded) Minimize(opt espresso.Options) *cube.Cover {
	return espresso.Minimize(e.On, e.Dc, opt)
}

// Metrics holds the paper's per-encoding measurements.
type Metrics struct {
	Bits  int // total encoding bits (states + symbolic inputs)
	Cubes int // product terms after espresso minimization
	Area  int // (2*(#in+#bits) + #bits + #outputs) * #cubes
}

// Measure minimizes the encoded FSM and reports the paper's metrics. The
// area model counts the encoded symbolic input bits among the PLA inputs.
func Measure(f *kiss.FSM, asg encoding.Assignment, opt espresso.Options) (Metrics, error) {
	sctx, sp := obs.Span(opt.Ctx, "mvmin.measure")
	opt.Ctx = sctx
	defer sp.End()
	e, err := EncodePLA(f, asg)
	if err != nil {
		return Metrics{}, err
	}
	min := e.Minimize(opt)
	inputs := f.NI + asg.InputBits()
	outputs := f.NO + asg.OutputBits()
	return Metrics{
		Bits:  asg.TotalBits(),
		Cubes: min.Len(),
		Area:  kiss.Area(inputs, asg.States.Bits, outputs, min.Len()),
	}, nil
}
