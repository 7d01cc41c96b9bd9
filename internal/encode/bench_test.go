package encode

import (
	"testing"

	"nova/internal/bench"
	"nova/internal/espresso"
	"nova/internal/mvmin"
)

// BenchmarkIHybridKeyb times the ihybrid semiexact chain on keyb's input
// constraints (19 states in the 5-cube). The search memo is reset with
// the timer stopped before every iteration, so each one runs every
// chain step's search instead of replaying the first iteration's
// verdicts. It stays on under -short so the short benchmark tier records
// the search kernel.
func BenchmarkIHybridKeyb(b *testing.B) {
	f := bench.Get("keyb")
	p, err := mvmin.Build(f)
	if err != nil {
		b.Fatal(err)
	}
	ics := p.Constraints(p.Minimize(espresso.Options{})).States
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		searchMemoReset()
		b.StartTimer()
		IHybrid(f.NumStates(), ics, 0, HybridOptions{})
	}
	b.StopTimer()
	searchMemoReset()
}
