// Package constraint implements the input-constraint machinery of NOVA:
// constraint sets (characteristic vectors over the symbols being encoded),
// the intersection closure Closure∩[IC], the input graph IG(V,E) with
// father/child relations, and the constraint categories used by the
// encoding algorithms (Sections 3.1-3.2 of the paper).
package constraint

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// Set is a subset of the n symbols {0..n-1} being encoded, the paper's
// characteristic-vector representation of an input constraint.
type Set struct {
	n int
	w []uint64
}

// NewSet returns the empty subset of an n-symbol universe.
func NewSet(n int) Set {
	return Set{n: n, w: make([]uint64, (n+63)/64)}
}

// Universe returns the constraint including all n symbols.
func Universe(n int) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

// Singleton returns the constraint {i} in an n-symbol universe.
func Singleton(n, i int) Set {
	s := NewSet(n)
	s.Add(i)
	return s
}

// FromString parses a characteristic vector like "1110000".
func FromString(v string) (Set, error) {
	s := NewSet(len(v))
	for i, c := range v {
		switch c {
		case '1':
			s.Add(i)
		case '0':
		default:
			return Set{}, fmt.Errorf("constraint: invalid character %q in %q", c, v)
		}
	}
	return s, nil
}

// MustFromString is FromString panicking on error, for test literals.
func MustFromString(v string) Set {
	s, err := FromString(v)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the universe size.
func (s Set) N() int { return s.n }

// Add inserts symbol i.
func (s Set) Add(i int) { s.w[i>>6] |= 1 << uint(i&63) }

// Remove deletes symbol i.
func (s Set) Remove(i int) { s.w[i>>6] &^= 1 << uint(i&63) }

// Has reports whether symbol i is in the set.
func (s Set) Has(i int) bool { return s.w[i>>6]&(1<<uint(i&63)) != 0 }

// Card returns the cardinality #(s).
func (s Set) Card() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s Set) IsEmpty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy returns an independent copy.
func (s Set) Copy() Set {
	c := Set{n: s.n, w: append([]uint64(nil), s.w...)}
	return c
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.w {
		if s.w[i] != t.w[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports s ⊆ t.
func (s Set) SubsetOf(t Set) bool {
	for i := range s.w {
		if s.w[i]&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool {
	return s.SubsetOf(t) && !s.Equal(t)
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	r := NewSet(s.n)
	for i := range s.w {
		r.w[i] = s.w[i] & t.w[i]
	}
	return r
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	r := NewSet(s.n)
	for i := range s.w {
		r.w[i] = s.w[i] | t.w[i]
	}
	return r
}

// IntersectCard returns #(s ∩ t) without materializing the intersection.
func (s Set) IntersectCard(t Set) int {
	n := 0
	for i := range s.w {
		n += bits.OnesCount64(s.w[i] & t.w[i])
	}
	return n
}

// Intersects reports whether s ∩ t is nonempty.
func (s Set) Intersects(t Set) bool {
	for i := range s.w {
		if s.w[i]&t.w[i] != 0 {
			return true
		}
	}
	return false
}

// Members returns the symbols of s in increasing order.
func (s Set) Members() []int {
	var out []int
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Key returns a canonical map key for the set: each word as 16
// lowercase hex digits, first word first.
func (s Set) Key() string { return string(s.AppendKey(make([]byte, 0, s.KeyLen()))) }

// KeyLen returns the length of s.Key().
func (s Set) KeyLen() int { return 16 * len(s.w) }

// AppendKey appends s.Key() to b and returns the extended buffer.
func (s Set) AppendKey(b []byte) []byte {
	const hex = "0123456789abcdef"
	for _, w := range s.w {
		for sh := 60; sh >= 0; sh -= 4 {
			b = append(b, hex[w>>uint(sh)&15])
		}
	}
	return b
}

// Compare orders two sets over the same universe the way their String
// renderings compare: at the lowest symbol in one set but not the
// other, the set without it comes first. It returns -1, 0 or +1.
func (s Set) Compare(t Set) int {
	for i, w := range s.w {
		if d := w ^ t.w[i]; d != 0 {
			if w&(d&-d) != 0 {
				return 1
			}
			return -1
		}
	}
	return 0
}

// String renders the characteristic vector, e.g. "1110000".
func (s Set) String() string {
	b := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Constraint is a weighted input constraint: the weight is proportional to
// the number of occurrences of the corresponding product term in the
// multiple-valued minimized cover (the product terms saved by satisfying
// the constraint).
type Constraint struct {
	Set    Set
	Weight int
}

// Normalize deduplicates a list of weighted constraints: equal sets have
// their weights summed; empty, singleton and universe sets are dropped
// (they are trivially satisfied). The result is sorted by decreasing
// weight, ties broken by decreasing cardinality then lexicographic vector,
// so processing order is deterministic.
func Normalize(list []Constraint) []Constraint {
	byKey := map[string]*Constraint{}
	var order []string
	for _, c := range list {
		card := c.Set.Card()
		if card < 2 || card == c.Set.N() {
			continue
		}
		k := c.Set.Key()
		if e, ok := byKey[k]; ok {
			e.Weight += c.Weight
			continue
		}
		cc := Constraint{Set: c.Set.Copy(), Weight: c.Weight}
		byKey[k] = &cc
		order = append(order, k)
	}
	out := make([]Constraint, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	slices.SortStableFunc(out, func(a, b Constraint) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		if ca, cb := a.Set.Card(), b.Set.Card(); ca != cb {
			return cmp.Compare(cb, ca)
		}
		return b.Set.Compare(a.Set)
	})
	return out
}

// TotalWeight sums the weights of a constraint list.
func TotalWeight(list []Constraint) int {
	t := 0
	for _, c := range list {
		t += c.Weight
	}
	return t
}
