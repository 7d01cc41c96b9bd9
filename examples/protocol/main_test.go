package main

import (
	"testing"

	"nova/internal/bench"
)

// TestMachineMatchesBenchCopy checks that the machine this program
// encodes is the one bench.Examples pins for the regression corpora.
func TestMachineMatchesBenchCopy(t *testing.T) {
	got := busFSM()
	for _, want := range bench.Examples() {
		if want.Name == "bus" {
			if got.String() != want.String() {
				t.Fatalf("busFSM():\n%s\nbench.Examples() bus:\n%s", got, want)
			}
			return
		}
	}
	t.Fatal("bench.Examples() has no bus machine")
}
