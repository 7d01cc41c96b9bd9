package main

import (
	"slices"
	"testing"
)

// TestOnlyUnknownMachines: -only fails on names outside the suite, naming
// each one, instead of silently running the rest.
func TestOnlyUnknownMachines(t *testing.T) {
	if got := unknownMachines([]string{"bbtas", "mc", "dk27", "nosuch"}); !slices.Equal(got, []string{"mc", "nosuch"}) {
		t.Fatalf("unknownMachines = %v, want [mc nosuch]", got)
	}
	if code := realMain([]string{"-only", "bbtas,mc", "-table", "1"}); code != 2 {
		t.Fatalf("-only with an unknown machine exited %d, want 2", code)
	}
}
