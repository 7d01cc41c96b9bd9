package constraint

// Prep is the output of Preprocess: the normalized constraint list the
// encoding algorithms consume, plus the counts the observability layer
// wants.
type Prep struct {
	// ICs is the preprocessed list: duplicate sets merged with summed
	// weights, trivially satisfied sets dropped, sorted by decreasing
	// weight (Normalize's deterministic order).
	ICs []Constraint
	// Merged counts the input entries folded into an earlier duplicate
	// (their weights were summed); Dropped counts the trivially
	// satisfied entries removed (cardinality < 2 or = n).
	Merged, Dropped int
}

// Preprocess prepares an input-constraint list for the encoding
// searches: Normalize — duplicate sets merged with their weights
// folded, trivially satisfied sets dropped, deterministic
// weight-descending order — with the merge and drop counts.
//
// Proper subsumption (A ⊃ B) is deliberately NOT merged: satisfying a
// face for A neither implies nor is implied by satisfying one for B,
// and the weights are per-constraint product-term savings, so folding
// them would change every algorithm's satisfied-weight accounting.
func Preprocess(list []Constraint) Prep {
	p := Prep{ICs: Normalize(list)}
	nontrivial := 0
	for _, c := range list {
		if card := c.Set.Card(); card >= 2 && card != c.Set.N() {
			nontrivial++
		}
	}
	p.Dropped = len(list) - nontrivial
	p.Merged = nontrivial - len(p.ICs)
	return p
}
