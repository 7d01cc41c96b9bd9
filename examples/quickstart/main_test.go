package main

import (
	"testing"

	"nova"
	"nova/internal/bench"
)

// TestMachineMatchesBenchCopy checks that the machine this program
// encodes is the one bench.Examples pins for the regression corpora.
func TestMachineMatchesBenchCopy(t *testing.T) {
	got, err := nova.ParseKISSString(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range bench.Examples() {
		if want.Name == "quickstart" {
			if got.String() != want.String() {
				t.Fatalf("table:\n%s\nbench.Examples() quickstart:\n%s", got, want)
			}
			return
		}
	}
	t.Fatal("bench.Examples() has no quickstart machine")
}
