package encode

import (
	"reflect"
	"sync"
	"testing"

	"nova/internal/constraint"
)

// TestConcurrentIHybridIndependence runs the same hybrid search from many
// goroutines over a shared constraint slice and requires every run to
// return the serial result. The parallel encoding engine fans searches
// over shared problem data exactly this way, so under -race (make verify)
// this pins the searches down to per-call state only — no hidden shared
// scratch, the same contract the minimizer keeps by giving every call its
// own arena.
func TestConcurrentIHybridIndependence(t *testing.T) {
	var ics []constraint.Constraint
	for _, v := range []string{"1110000", "0111000", "0000111", "1000110", "0000011", "0011000"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}
	opt := HybridOptions{Seed: 5}
	base := IHybrid(7, ics, 4, opt)
	if base.Err != nil {
		t.Fatalf("serial IHybrid failed: %v", base.Err)
	}
	const workers = 8
	results := make([]Result, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = IHybrid(7, ics, 4, opt)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !reflect.DeepEqual(r, base) {
			t.Fatalf("concurrent run %d diverged from serial:\ngot  %+v\nwant %+v", i, r, base)
		}
	}
}
