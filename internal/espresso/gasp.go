package espresso

import (
	"nova/internal/cube"
)

// LAST_GASP and MAKE_SPARSE: the espresso loop's escape hatch from local
// minima and its final literal-lowering pass.

// maxReduce returns the maximally reduced version of cube c against the
// cover rest ∪ dc: parts are lowered greedily to fixpoint, keeping c an
// element whose private minterms stay covered. c is not modified.
func maxReduce(s *cube.Structure, c cube.Cube, rest *cube.Cover, a *cube.Arena) cube.Cube {
	r := c.Copy()
	slice := a.NewCube()
	changed := true
	for changed {
		changed = false
		for v := 0; v < s.NumVars(); v++ {
			if s.VarCount(r, v) < 2 {
				continue
			}
			for p := 0; p < s.Size(v); p++ {
				if !s.Test(r, v, p) || s.VarCount(r, v) < 2 {
					continue
				}
				copy(slice, r)
				s.ClearAll(slice, v)
				s.Set(slice, v, p)
				if rest.CoversCubeWith(a, slice) {
					s.Clear(r, v, p)
					changed = true
				}
			}
		}
	}
	a.FreeCube(slice)
	return r
}

// LastGasp implements the last_gasp step: every cube is maximally reduced
// independently (against the rest of the unreduced cover), the reduced
// cubes are pairwise merged by supercube where the merge is an implicant,
// and irredundancy is restored. It reports whether the cover cardinality
// decreased; f is modified in place only when it does.
func LastGasp(f, dc *cube.Cover) bool {
	a := cube.GetArena(f.S)
	off := offSetWith(f, dc, a)
	ok := lastGaspWith(f, dc, off, a)
	a.Release(off)
	cube.PutArena(a)
	return ok
}

// lastGaspWith is LAST_GASP with off a cover of the complement of f∪dc.
func lastGaspWith(f, dc, off *cube.Cover, a *cube.Arena) bool {
	s := f.S
	if len(f.Cubes) < 2 {
		return false
	}
	all := f.Copy().Append(dc)
	reduced := make([]cube.Cube, len(f.Cubes))
	rest := a.NewCover()
	for i, c := range f.Cubes {
		rest.Cubes = rest.Cubes[:0]
		rest.Cubes = append(rest.Cubes, f.Cubes[:i]...)
		rest.Cubes = append(rest.Cubes, f.Cubes[i+1:]...)
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		reduced[i] = maxReduce(s, c, rest, a)
	}
	a.FreeCover(rest)
	var candidates []cube.Cube
	// The merged cubes are raised in part order, all weights being equal.
	raises := raiseOrder(s, make([]int, s.Bits()))
	blocked := a.NewCube()
	for i := 0; i < len(reduced); i++ {
		for j := i + 1; j < len(reduced); j++ {
			m := s.NewCube()
			cube.Or(m, reduced[i], reduced[j])
			if m.Equal(reduced[i]) || m.Equal(reduced[j]) {
				continue
			}
			if all.CoversCubeWith(a, m) {
				expandCube(s, m, off, raises, blocked)
				candidates = append(candidates, m)
			}
		}
	}
	a.FreeCube(blocked)
	if len(candidates) == 0 {
		return false
	}
	trial := f.Copy()
	trial.Cubes = append(trial.Cubes, candidates...)
	trial.SingleCubeContainment()
	irredundantWith(trial, dc, a)
	if trial.Len() < f.Len() {
		f.Cubes = trial.Cubes
		return true
	}
	return false
}

// MakeSparse is espresso's final pass: output parts (and any
// multiple-valued literal parts) that are redundantly asserted — their
// slice is covered by the rest of the cover plus the don't-care set — are
// lowered, reducing the personality matrix's care entries without
// changing the function or the cube count. Binary input variables are
// left alone (they are already maximally raised by EXPAND); the output
// part is, per this package's convention, the last variable and is always
// processed.
func MakeSparse(f, dc *cube.Cover) {
	a := cube.GetArena(f.S)
	makeSparseWith(f, dc, a)
	cube.PutArena(a)
}

func makeSparseWith(f, dc *cube.Cover, a *cube.Arena) {
	s := f.S
	outVar := s.NumVars() - 1
	rest := a.NewCover()
	slice := a.NewCube()
	for i, c := range f.Cubes {
		rest.Cubes = rest.Cubes[:0]
		rest.Cubes = append(rest.Cubes, f.Cubes[:i]...)
		rest.Cubes = append(rest.Cubes, f.Cubes[i+1:]...)
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		for v := 0; v < s.NumVars(); v++ {
			if v != outVar && s.Size(v) == 2 {
				continue // binary inputs stay expanded
			}
			for p := 0; p < s.Size(v); p++ {
				// The output variable may be emptied entirely (the cube
				// is then fully redundant and dropped); multiple-valued
				// input literals must keep at least one part.
				if !s.Test(c, v, p) || (v != outVar && s.VarCount(c, v) < 2) {
					continue
				}
				copy(slice, c)
				s.ClearAll(slice, v)
				s.Set(slice, v, p)
				if rest.CoversCubeWith(a, slice) {
					s.Clear(c, v, p)
				}
			}
		}
	}
	a.FreeCube(slice)
	a.FreeCover(rest)
	dropEmpty(f)
}
