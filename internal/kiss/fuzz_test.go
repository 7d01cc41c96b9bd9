package kiss

import (
	"testing"
)

// Fuzz targets for the two text parsers. Both assert the same two
// properties: no input may panic the parser, and any input that parses
// must round-trip — writing the parsed value and parsing it again yields
// the same serialized form (Write output is the canonical form, so the
// first Write settles normalization and the second must reproduce it).
// A parsed KISS2 table must also pass FSM.Validate.

func FuzzParseKISS2(f *testing.F) {
	for _, seed := range []string{
		".i 2\n.o 1\n.s 2\n.r s0\n00 s0 s0 0\n01 s0 s1 1\n1- s1 s0 1\n.e\n",
		".i 0\n.o 1\n.symin cmd read write idle\n- read a b 1\n- write b a 0\n- idle a a 0\n.e\n",
		".i 1\n.o 0\n.symout uop load store\n0 x y - load\n1 y x - store\n.e\n",
		".i 2\n.o 2\n.p 2\n-- a a 00\n11 a b 11\n.end\n",
		"# comment\n.i 1\n.o 1\n.s 1\n0 only only 1 # trailing\n.e\n",
		".i 1\n.o 1\n0 s0 * 1\n- s0 s0 0\n.e\n",
		".o 1\n- a b 1\n- b a 0\n.i 2\n", // .i after the rows it governs
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		fsm, err := ParseString(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if err := fsm.Validate(); err != nil {
			t.Fatalf("parsed FSM fails Validate: %v\ninput:\n%s", err, data)
		}
		first := fsm.String()
		again, err := ParseString(first)
		if err != nil {
			t.Fatalf("re-parse of written FSM failed: %v\ninput:\n%s\nwritten:\n%s", err, data, first)
		}
		if second := again.String(); second != first {
			t.Fatalf("round-trip unstable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}

func FuzzParsePLA(f *testing.F) {
	for _, seed := range []string{
		".i 2\n.o 2\n.p 2\n0- 10\n11 01\n.e\n",
		".i 3\n.o 1\n.type fd\n--- 1\n010 0\n1-1 -\n.e\n",
		".i 1\n.o 4\n.ilb a\n.ob w x y z\n0 1401\n.end\n",
		".i 0\n.o 1\n 1\n.e\n",
		"# pla comment\n.i 2\n.o 1\n00 1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		p, err := ParsePLAString(data)
		if err != nil {
			return
		}
		first := p.String()
		again, err := ParsePLAString(first)
		if err != nil {
			t.Fatalf("re-parse of written PLA failed: %v\ninput:\n%s\nwritten:\n%s", err, data, first)
		}
		if second := again.String(); second != first {
			t.Fatalf("round-trip unstable:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
