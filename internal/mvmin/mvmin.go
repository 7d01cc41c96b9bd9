// Package mvmin builds the multiple-valued symbolic cover of an FSM's
// combinational component, runs multiple-valued (output-disjoint)
// minimization on it, and extracts the weighted input constraints that
// drive NOVA's encoding algorithms (Section 2.2 of the paper). It also
// provides the reverse translation: given a code assignment, it constructs
// the encoded two-level cover whose minimized cardinality is the paper's
// "#cubes" metric.
package mvmin

import (
	"fmt"

	"nova/internal/constraint"
	"nova/internal/cube"
	"nova/internal/espresso"
	"nova/internal/kiss"
	"nova/internal/obs"
)

// Problem is the multiple-valued representation of an FSM's combinational
// logic. The cube structure is:
//
//	variables 0..NI-1:            binary proper inputs (2 parts each)
//	variables NI..NI+#sym-1:      symbolic proper inputs (one per variable)
//	variable  StateVar:           the present-state variable (#states parts)
//	variable  OutVar:             the output part — #states parts for the
//	                              1-hot next state, NO parts for the binary
//	                              proper outputs, then one part per value
//	                              of each symbolic output variable
type Problem struct {
	F        *kiss.FSM
	S        *cube.Structure
	On       *cube.Cover
	Dc       *cube.Cover
	StateVar int
	OutVar   int
	SymVars  []int // structure variable index per symbolic input
	// SymOutBase holds, per symbolic output variable, the first part index
	// of its 1-hot group within the output variable.
	SymOutBase []int
}

// Build constructs the symbolic cover of the FSM. Unspecified
// (input, present-state) combinations contribute a full don't-care row;
// '-' output bits contribute per-output don't-cares.
func Build(f *kiss.FSM) (*Problem, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	ns := f.NumStates()
	sizes := make([]int, 0, f.NI+len(f.SymIns)+2)
	for i := 0; i < f.NI; i++ {
		sizes = append(sizes, 2)
	}
	symVars := make([]int, len(f.SymIns))
	for i, v := range f.SymIns {
		symVars[i] = len(sizes)
		sizes = append(sizes, len(v.Values))
	}
	stateVar := len(sizes)
	sizes = append(sizes, ns)
	outVar := len(sizes)
	outParts := ns + f.NO
	symOutBase := make([]int, len(f.SymOuts))
	for i, v := range f.SymOuts {
		symOutBase[i] = outParts
		outParts += len(v.Values)
	}
	sizes = append(sizes, outParts)
	s := cube.NewStructure(sizes...)

	p := &Problem{F: f, S: s, StateVar: stateVar, OutVar: outVar, SymVars: symVars, SymOutBase: symOutBase}
	p.On = cube.NewCover(s)
	p.Dc = cube.NewCover(s)

	for ri, r := range f.Rows {
		c, err := p.rowInputCube(r)
		if err != nil {
			return nil, fmt.Errorf("mvmin: row %d: %v", ri, err)
		}
		onOut, dcOut := false, false
		on := c.Copy()
		dc := c.Copy()
		if r.Next >= 0 {
			s.Set(on, outVar, r.Next)
			onOut = true
		} else {
			// Unspecified next state: every next-state part is DC.
			for j := 0; j < ns; j++ {
				s.Set(dc, outVar, j)
			}
			dcOut = true
		}
		for o := 0; o < f.NO; o++ {
			switch r.Out[o] {
			case '1':
				s.Set(on, outVar, ns+o)
				onOut = true
			case '-':
				s.Set(dc, outVar, ns+o)
				dcOut = true
			}
		}
		for j, v := range r.SymOut {
			if v >= 0 {
				s.Set(on, outVar, symOutBase[j]+v)
				onOut = true
			} else {
				for q := 0; q < len(f.SymOuts[j].Values); q++ {
					s.Set(dc, outVar, symOutBase[j]+q)
				}
				dcOut = true
			}
		}
		if onOut {
			p.On.Add(on)
		}
		if dcOut {
			p.Dc.Add(dc)
		}
	}

	// Input-space don't-cares: (input, state) combinations matched by no
	// row leave every output unspecified. They are the complement, over
	// the input variables, of the union of the row activation cubes.
	inSizes := append([]int(nil), sizes[:outVar]...)
	inS := cube.NewStructure(inSizes...)
	rowIn := cube.NewCover(inS)
	for _, r := range f.Rows {
		c, _ := p.rowInputCube(r)
		trim := inS.NewCube()
		for v := 0; v < inS.NumVars(); v++ {
			for q := 0; q < inS.Size(v); q++ {
				if s.Test(c, v, q) {
					inS.Set(trim, v, q)
				}
			}
		}
		rowIn.Add(trim)
	}
	comp := rowIn.Complement()
	for _, c := range comp.Cubes {
		d := s.NewCube()
		for v := 0; v < inS.NumVars(); v++ {
			for q := 0; q < inS.Size(v); q++ {
				if inS.Test(c, v, q) {
					s.Set(d, v, q)
				}
			}
		}
		s.SetAll(d, outVar)
		p.Dc.Add(d)
	}
	return p, nil
}

// rowInputCube builds the activation cube of a row over the full structure
// (output part left empty).
func (p *Problem) rowInputCube(r kiss.Row) (cube.Cube, error) {
	s := p.S
	c := s.NewCube()
	for i := 0; i < p.F.NI; i++ {
		switch r.In[i] {
		case '0':
			s.Set(c, i, 0)
		case '1':
			s.Set(c, i, 1)
		case '-':
			s.SetAll(c, i)
		default:
			return nil, fmt.Errorf("invalid input char %q", r.In[i])
		}
	}
	for j, v := range r.SymIn {
		if v < 0 {
			s.SetAll(c, p.SymVars[j])
		} else {
			s.Set(c, p.SymVars[j], v)
		}
	}
	if r.Present < 0 {
		s.SetAll(c, p.StateVar)
	} else {
		s.Set(c, p.StateVar, r.Present)
	}
	return c, nil
}

// Minimize runs multiple-valued minimization on the symbolic cover and
// returns the minimized cover. With the 1-hot next state in the output
// part, this is the output-disjoint minimization of KISS: product terms
// merge exactly when they share next state and asserted outputs.
func (p *Problem) Minimize(opt espresso.Options) *cube.Cover {
	sctx, sp := obs.Span(opt.Ctx, "mvmin.minimize")
	opt.Ctx = sctx
	min := espresso.Minimize(p.On, p.Dc, opt)
	sp.End()
	return min
}

// Constraints extracts the weighted input constraints from a minimized
// multiple-valued cover: for every cube, the present-state literal with
// two or more (but not all) states is an input constraint; the weight of a
// constraint is the number of cubes asserting it. When the FSM has
// symbolic inputs, per-variable constraints are extracted the same way.
func (p *Problem) Constraints(min *cube.Cover) ConstraintSets {
	cs := ConstraintSets{
		States: p.VarConstraints(min, p.StateVar, p.F.NumStates()),
	}
	for i, v := range p.SymVars {
		cs.SymIns = append(cs.SymIns, p.VarConstraints(min, v, len(p.F.SymIns[i].Values)))
	}
	return cs
}

// ConstraintSets holds the input constraints per encoded variable.
type ConstraintSets struct {
	States []constraint.Constraint
	SymIns [][]constraint.Constraint
}

// VarConstraints extracts the normalized input constraints of structure
// variable v, which has n values, from a cover: the literal of v in every
// cube with two or more (but not all) values, of weight 1 per cube.
func (p *Problem) VarConstraints(min *cube.Cover, v, n int) []constraint.Constraint {
	var raw []constraint.Constraint
	for _, c := range min.Cubes {
		parts := p.S.VarParts(c, v)
		if len(parts) < 2 || len(parts) == n {
			continue
		}
		set := constraint.NewSet(n)
		for _, q := range parts {
			set.Add(q)
		}
		raw = append(raw, constraint.Constraint{Set: set, Weight: 1})
	}
	return constraint.Normalize(raw)
}

// OneHotCubes returns the product-term cardinality of the 1-hot encoded
// FSM: the cardinality of the minimized multiple-valued cover (the 1-hot
// column of Table II), since under 1-hot encoding every multiple-valued
// literal is realizable as a face.
func (p *Problem) OneHotCubes(opt espresso.Options) int {
	return p.Minimize(opt).Len()
}
