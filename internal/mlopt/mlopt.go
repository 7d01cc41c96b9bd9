// Package mlopt is the multilevel logic optimization stand-in used to
// reproduce Table VII (the paper ran MIS-II's standard script). It builds
// a Boolean network from a minimized two-level cover and applies greedy
// algebraic restructuring — shared-term extraction, common-cube (single-
// cube divisor) extraction and level-0 kernel (multi-cube divisor)
// extraction — and reports the resulting literal count, the paper's
// multilevel cost metric. The optimizer is deterministic, so encoding
// comparisons (NOVA vs MUSTANG vs random) are consistent.
package mlopt

import (
	"sort"

	"nova/internal/cube"
)

// A literal is an integer: 2*v for variable v in positive phase, 2*v+1 in
// negative phase. Intermediate nodes introduce fresh variables, always
// referenced in positive phase.

// Cube is a sorted set of literals (an AND term).
type Cube []int

// Node is one function of the network: an OR of cubes.
type Node struct {
	Var   int // the variable this node drives
	Cubes []Cube
}

// Network is a combinational Boolean network.
type Network struct {
	NumIn   int // primary input variables 0..NumIn-1
	nextVar int
	Nodes   []*Node
	Outputs []int // indexes into Nodes of the primary outputs
}

// FromCover builds the initial network from a two-level cover over nin
// binary variables and one output variable: one node per output whose
// cubes are the input parts of the rows asserting it.
func FromCover(f *cube.Cover, nin int) *Network {
	s := f.S
	nout := s.Size(nin)
	n := &Network{NumIn: nin, nextVar: nin}
	for o := 0; o < nout; o++ {
		nd := &Node{Var: n.nextVar}
		n.nextVar++
		for _, c := range f.Cubes {
			if !s.Test(c, nin, o) {
				continue
			}
			var k Cube
			for v := 0; v < nin; v++ {
				zero, one := s.Test(c, v, 0), s.Test(c, v, 1)
				switch {
				case zero && one:
				case one:
					k = append(k, 2*v)
				case zero:
					k = append(k, 2*v+1)
				}
			}
			sort.Ints(k)
			nd.Cubes = append(nd.Cubes, k)
		}
		n.Outputs = append(n.Outputs, len(n.Nodes))
		n.Nodes = append(n.Nodes, nd)
	}
	return n
}

// Literals returns the network's literal count: the sum over nodes of the
// literals of their sum-of-products forms (constant terms count zero).
func (n *Network) Literals() int {
	t := 0
	for _, nd := range n.Nodes {
		for _, c := range nd.Cubes {
			t += len(c)
		}
	}
	return t
}

func key(c Cube) string {
	b := make([]byte, 0, len(c)*3)
	for _, l := range c {
		b = append(b, byte(l), byte(l>>8), ',')
	}
	return string(b)
}

// contains reports whether sorted cube a contains all literals of sorted
// cube b.
func contains(a, b Cube) bool {
	i := 0
	for _, l := range b {
		for i < len(a) && a[i] < l {
			i++
		}
		if i >= len(a) || a[i] != l {
			return false
		}
		i++
	}
	return true
}

// minus returns a \ b for sorted cubes.
func minus(a, b Cube) Cube {
	var out Cube
	i := 0
	for _, l := range a {
		for i < len(b) && b[i] < l {
			i++
		}
		if i < len(b) && b[i] == l {
			continue
		}
		out = append(out, l)
	}
	return out
}

// intersect returns a ∩ b for sorted cubes.
func intersect(a, b Cube) Cube {
	var out Cube
	i := 0
	for _, l := range a {
		for i < len(b) && b[i] < l {
			i++
		}
		if i < len(b) && b[i] == l {
			out = append(out, l)
		}
	}
	return out
}

// Options tunes the optimizer.
type Options struct {
	// DisableKernels restricts the optimizer to common-cube extraction
	// (ablation hook).
	DisableKernels bool
}

// maxExtractions bounds the number of divisor extractions.
const maxExtractions = 1000

// Optimize greedily extracts the best divisor (common cube or kernel)
// until no extraction saves literals.
func (n *Network) Optimize(opt Options) {
	for i := 0; i < maxExtractions; i++ {
		gc, cc := n.bestCommonCube()
		gk, kd := 0, []Cube(nil)
		if !opt.DisableKernels {
			gk, kd = n.bestKernel()
		}
		switch {
		case gc <= 0 && gk <= 0:
			return
		case gc >= gk:
			n.extractCube(cc)
		default:
			n.extractKernel(kd)
		}
	}
}

// bestCommonCube finds the single-cube divisor with the best literal gain:
// candidates are pairwise intersections of cubes; a divisor of size s
// occurring in k cubes saves k*(s-1) - s literals.
func (n *Network) bestCommonCube() (gain int, best Cube) {
	// Collect all cubes.
	var all []Cube
	for _, nd := range n.Nodes {
		all = append(all, nd.Cubes...)
	}
	seen := map[string]bool{}
	gain = 0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			cand := intersect(all[i], all[j])
			if len(cand) < 2 {
				continue
			}
			k := key(cand)
			if seen[k] {
				continue
			}
			seen[k] = true
			occ := 0
			for _, c := range all {
				if contains(c, cand) {
					occ++
				}
			}
			g := occ*(len(cand)-1) - len(cand)
			if g > gain {
				gain, best = g, cand
			}
		}
	}
	return gain, best
}

// extractCube introduces a new node for divisor d and rewrites every cube
// containing d to use the new literal.
func (n *Network) extractCube(d Cube) {
	v := n.nextVar
	n.nextVar++
	lit := 2 * v
	for _, nd := range n.Nodes {
		for ci, c := range nd.Cubes {
			if contains(c, d) {
				r := minus(c, d)
				r = append(r, lit)
				sort.Ints(r)
				nd.Cubes[ci] = r
			}
		}
	}
	n.Nodes = append(n.Nodes, &Node{Var: v, Cubes: []Cube{append(Cube(nil), d...)}})
}

// kernels returns the level-0 kernels of a node: for each literal in two
// or more cubes, the cube-free quotient with at least two cubes.
func kernels(nd *Node) [][]Cube {
	count := map[int]int{}
	for _, c := range nd.Cubes {
		for _, l := range c {
			count[l]++
		}
	}
	var out [][]Cube
	for l, k := range count {
		if k < 2 {
			continue
		}
		var q []Cube
		for _, c := range nd.Cubes {
			if idx := sort.SearchInts(c, l); idx < len(c) && c[idx] == l {
				q = append(q, minus(c, Cube{l}))
			}
		}
		// Make cube-free: strip the largest common cube.
		common := append(Cube(nil), q[0]...)
		for _, c := range q[1:] {
			common = intersect(common, c)
		}
		if len(common) > 0 {
			for i := range q {
				q[i] = minus(q[i], common)
			}
		}
		if len(q) >= 2 {
			ok := true
			for _, c := range q {
				if len(c) == 0 {
					ok = false // degenerate (a + ab style): skip
				}
			}
			if ok {
				out = append(out, q)
			}
		}
	}
	return out
}

// divide performs weak algebraic division of a node by divisor d,
// returning the quotient cubes (empty when d does not divide the node).
func divide(nd *Node, d []Cube) []Cube {
	var q []Cube
	for qi, di := range d {
		var cand []Cube
		for _, c := range nd.Cubes {
			if contains(c, di) {
				cand = append(cand, minus(c, di))
			}
		}
		if qi == 0 {
			q = cand
			continue
		}
		// Intersect cube sets.
		have := map[string]bool{}
		for _, c := range cand {
			have[key(c)] = true
		}
		var kept []Cube
		for _, c := range q {
			if have[key(c)] {
				kept = append(kept, c)
			}
		}
		q = kept
		if len(q) == 0 {
			return nil
		}
	}
	// Deduplicate the quotient (identical cubes would double-substitute).
	seen := map[string]bool{}
	var out []Cube
	for _, c := range q {
		k := key(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// bestKernel evaluates every level-0 kernel of every node as a candidate
// multi-cube divisor and returns the best literal gain.
func (n *Network) bestKernel() (gain int, best []Cube) {
	seen := map[string]bool{}
	for _, nd := range n.Nodes {
		for _, kd := range kernels(nd) {
			sig := ""
			ks := make([]string, len(kd))
			for i, c := range kd {
				ks[i] = key(c)
			}
			sort.Strings(ks)
			for _, s := range ks {
				sig += s + ";"
			}
			if seen[sig] {
				continue
			}
			seen[sig] = true
			g := n.kernelGain(kd)
			if g > gain {
				gain, best = g, kd
			}
		}
	}
	return gain, best
}

// kernelGain computes the literal saving of extracting divisor d.
func (n *Network) kernelGain(d []Cube) int {
	ld := 0
	for _, c := range d {
		ld += len(c)
	}
	m := len(d)
	save := 0
	for _, nd := range n.Nodes {
		q := divide(nd, d)
		for _, x := range q {
			save += (m-1)*len(x) + ld - 1
		}
	}
	return save - ld
}

// extractKernel introduces a node for divisor d and substitutes it in
// every node it divides.
func (n *Network) extractKernel(d []Cube) {
	v := n.nextVar
	n.nextVar++
	lit := 2 * v
	for _, nd := range n.Nodes {
		q := divide(nd, d)
		if len(q) == 0 {
			continue
		}
		// Remove the q×d cubes, add q cubes extended with the new literal.
		remove := map[string]bool{}
		for _, x := range q {
			for _, di := range d {
				merged := append(append(Cube(nil), x...), di...)
				sort.Ints(merged)
				remove[key(merged)] = true
			}
		}
		var kept []Cube
		for _, c := range nd.Cubes {
			if !remove[key(c)] {
				kept = append(kept, c)
			}
		}
		for _, x := range q {
			r := append(append(Cube(nil), x...), lit)
			sort.Ints(r)
			kept = append(kept, r)
		}
		nd.Cubes = kept
	}
	dn := &Node{Var: v}
	for _, c := range d {
		dn.Cubes = append(dn.Cubes, append(Cube(nil), c...))
	}
	n.Nodes = append(n.Nodes, dn)
}

// String renders the network one node per line as factored SOPs, inputs
// named a,b,c,… (then v<N>), negation marked with a trailing apostrophe.
func (n *Network) String() string {
	name := func(v int) string {
		if v < 26 {
			return string(rune('a' + v))
		}
		return "v" + itoa(v)
	}
	lit := func(l int) string {
		s := name(l / 2)
		if l%2 == 1 {
			s += "'"
		}
		return s
	}
	var b []byte
	for _, nd := range n.Nodes {
		b = append(b, name(nd.Var)...)
		b = append(b, " = "...)
		for ci, c := range nd.Cubes {
			if ci > 0 {
				b = append(b, " + "...)
			}
			if len(c) == 0 {
				b = append(b, '1')
			}
			for li, l := range c {
				if li > 0 {
					b = append(b, "·"...)
				}
				b = append(b, lit(l)...)
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// OptimizedLiterals is the one-call helper used by the Table VII harness.
func OptimizedLiterals(f *cube.Cover, nin int, opt Options) int {
	n := FromCover(f, nin)
	n.Optimize(opt)
	return n.Literals()
}
