package obs

import (
	"testing"
	"time"
)

func TestObserveDurAndVars(t *testing.T) {
	tr := New()
	m := tr.Metrics()
	m.Add("cache.hits", 3)
	m.PoolTasks.Add(2)
	m.ObserveDur("http.latency.encode", 1500*time.Microsecond)
	m.ObserveDur("http.latency.encode", 500*time.Microsecond)

	vars := m.Vars()
	if vars["cache.hits"] != 3 || vars["pool.tasks"] != 2 {
		t.Fatalf("counters lost: %v", vars)
	}
	if vars["http.latency.encode.count"] != 2 {
		t.Fatalf("hist count = %d, want 2", vars["http.latency.encode.count"])
	}
	if vars["http.latency.encode.sum"] != 2000 {
		t.Fatalf("hist sum = %d µs, want 2000", vars["http.latency.encode.sum"])
	}
	if vars["http.latency.encode.max"] != 1500 {
		t.Fatalf("hist max = %d µs, want 1500", vars["http.latency.encode.max"])
	}

	// Counters() must stay histogram-free: run reports key on it.
	if _, leaked := m.Counters()["http.latency.encode.count"]; leaked {
		t.Fatal("histogram summary leaked into Counters()")
	}
}

func TestVarsNilMetrics(t *testing.T) {
	var m *Metrics
	if m.Vars() != nil {
		t.Fatal("nil Metrics should return nil Vars")
	}
	m.ObserveDur("x", time.Second) // must not panic
}
