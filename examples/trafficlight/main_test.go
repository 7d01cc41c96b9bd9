package main

import (
	"testing"

	"nova/internal/bench"
)

// TestMachineMatchesBenchCopy checks that the machine this program
// encodes is the one bench.Examples pins for the regression corpora.
func TestMachineMatchesBenchCopy(t *testing.T) {
	got := controller()
	for _, want := range bench.Examples() {
		if want.Name == "traffic" {
			if got.String() != want.String() {
				t.Fatalf("controller():\n%s\nbench.Examples() traffic:\n%s", got, want)
			}
			return
		}
	}
	t.Fatal("bench.Examples() has no traffic machine")
}
