package main

import (
	"testing"

	"nova"
	"nova/internal/espresso"
	"nova/internal/mvmin"
)

func TestGenerateIsSeeded(t *testing.T) {
	for _, stream := range []int{streamBest, streamGreedy, streamServe} {
		a := Corpus(tableI, 1, stream, 0, len(tableI))
		b := Corpus(tableI, 1, stream, 0, len(tableI))
		c := Corpus(tableI, 2, stream, 0, len(tableI))
		for i := range a {
			if a[i].KISS2 != b[i].KISS2 {
				t.Errorf("stream %d machine %s: same seed, different KISS2", stream, a[i].Name)
			}
			if a[i].KISS2 == c[i].KISS2 {
				t.Errorf("stream %d machine %s: seeds 1 and 2 give the same KISS2", stream, a[i].Name)
			}
		}
	}
}

// TestGeneratedMachines checks every Table I shape over a few seeds: the
// machine validates, is deterministic and yields at least one input
// constraint, and a re-spelling parses to the same problem under a
// different cache key.
func TestGeneratedMachines(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, m := range Corpus(tableI, seed, streamBest, 0, len(tableI)) {
			f, err := nova.ParseKISSString(m.KISS2)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if err := f.Validate(); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
			if ok, why := f.Deterministic(); !ok {
				t.Errorf("%s: not deterministic: %s", m.Name, why)
			}
			p, err := mvmin.Build(f)
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			cs := p.Constraints(p.Minimize(espresso.Options{}))
			if len(cs.States) == 0 {
				t.Errorf("%s (seed %d): no input constraint", m.Name, seed)
			}

			re := nova.Request{KISS2: Respell(m.KISS2, "v1_"), Name: m.Name}
			g, err := re.Machine()
			if err != nil {
				t.Fatalf("%s respelled: %v", m.Name, err)
			}
			if g.NumStates() != f.NumStates() || g.NumTerms() != f.NumTerms() {
				t.Errorf("%s: respelling changed the machine", m.Name)
			}
			orig := nova.Request{KISS2: m.KISS2, Name: m.Name}
			k1, err1 := orig.CacheKey()
			k2, err2 := re.CacheKey()
			if err1 != nil || err2 != nil || k1 == k2 {
				t.Errorf("%s: respelling keeps the cache key (%v, %v)", m.Name, err1, err2)
			}
		}
	}
}
