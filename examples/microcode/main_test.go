package main

import (
	"testing"

	"nova/internal/bench"
)

// TestMachineMatchesBenchCopy checks that the machine this program
// encodes is the one bench.Examples pins for the regression corpora.
func TestMachineMatchesBenchCopy(t *testing.T) {
	got := sequencer()
	for _, want := range bench.Examples() {
		if want.Name == "microseq" {
			if got.String() != want.String() {
				t.Fatalf("sequencer():\n%s\nbench.Examples() microseq:\n%s", got, want)
			}
			return
		}
	}
	t.Fatal("bench.Examples() has no microseq machine")
}
