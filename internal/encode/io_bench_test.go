package encode_test

import (
	"testing"

	"nova/internal/bench"
	"nova/internal/encode"
	"nova/internal/symbolic"
)

// BenchmarkIOHybridBbara times iohybrid_code on bbara's symbolic
// problem, built once outside the timer: the semiexact chain over its
// input constraints, then the output covering cluster trials, two of
// which stop at max_work. As in BenchmarkIHybridKeyb, the search memo is
// reset with the timer stopped before every iteration, and the benchmark
// stays on under -short. It lives in the external test package because
// internal/symbolic imports internal/encode.
func BenchmarkIOHybridBbara(b *testing.B) {
	out, err := symbolic.Analyze(bench.Get("bbara"), symbolic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if out.Problem.TotalOC() == 0 {
		b.Fatal("bbara's symbolic problem has no output covering edges")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		encode.SearchMemoReset()
		b.StartTimer()
		encode.IOHybrid(out.Problem, 0, encode.HybridOptions{})
	}
	b.StopTimer()
	encode.SearchMemoReset()
}
