package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New()
	ctx := With(context.Background(), tr)

	ctx1, root := Span(ctx, "root")
	_, child := Span(ctx1, "child")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	snap := tr.Snapshot()
	if snap.Spans != 2 {
		t.Fatalf("spans = %d, want 2", snap.Spans)
	}
	var rootRec, childRec *SpanRecord
	for i := range tr.spans {
		switch tr.spans[i].Name {
		case "root":
			rootRec = &tr.spans[i]
		case "child":
			childRec = &tr.spans[i]
		}
	}
	if rootRec == nil || childRec == nil {
		t.Fatalf("missing span records: %+v", tr.spans)
	}
	if rootRec.Parent != 0 {
		t.Errorf("root parent = %d, want 0", rootRec.Parent)
	}
	if childRec.Parent != rootRec.ID {
		t.Errorf("child parent = %d, want %d", childRec.Parent, rootRec.ID)
	}
	// Self time of root excludes the child's duration.
	rp := snap.Phase("root")
	if rp == nil {
		t.Fatal("no root phase")
	}
	if rp.Self >= rp.Total {
		t.Errorf("root self %v not smaller than total %v", rp.Self, rp.Total)
	}
	if snap.Root != rootRec.Dur {
		t.Errorf("snapshot root = %v, want %v", snap.Root, rootRec.Dur)
	}
}

func TestSpanNestsAcrossGoroutines(t *testing.T) {
	tr := New()
	ctx := With(context.Background(), tr)
	ctx, root := Span(ctx, "parent")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Span(ctx, "task")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	want := root.rec.ID
	n := 0
	for _, r := range tr.spans {
		if r.Name == "task" {
			if r.Parent != want {
				t.Errorf("task parent = %d, want %d", r.Parent, want)
			}
			n++
		}
	}
	if n != 4 {
		t.Fatalf("task spans = %d, want 4", n)
	}
}

func TestNoTracerIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := Span(ctx, "x")
		sp.SetInt("k", 1)
		sp.End()
		if c != ctx {
			t.Fatal("ctx changed without tracer")
		}
	})
	// Alloc counts are noise under the race detector (its runtime
	// allocates on its own schedule); the non-race runs enforce this.
	if allocs != 0 && !raceEnabled {
		t.Fatalf("no-op Span allocates %v/op, want 0", allocs)
	}
	// nil ctx and nil receivers must not panic.
	if _, sp := Span(nil, "x"); sp != nil { //nolint:staticcheck // nil ctx on purpose
		t.Fatal("nil ctx produced a span")
	}
	From(nil).Emit("x", nil)
	MetricsFrom(nil).Add("x", 1)
	var nilSnap *Tracer
	if nilSnap.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
}

func TestJSONLinesOutput(t *testing.T) {
	var buf bytes.Buffer
	tr := New()
	tr.SetLabel("m1")
	tr.SetWriter(LockedWriter(&buf))
	ctx := With(context.Background(), tr)
	c, sp := Span(ctx, "phase.a")
	sp.SetInt("cubes_in", 7)
	sp.SetStr("alg", "iexact")
	_, inner := Span(c, "phase.b")
	inner.End()
	sp.End()
	tr.Emit("summary", map[string]any{"area": 128})

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3", len(lines))
	}
	// spans stream in End order: b before a.
	if lines[0]["name"] != "phase.b" || lines[1]["name"] != "phase.a" {
		t.Errorf("unexpected order: %v %v", lines[0]["name"], lines[1]["name"])
	}
	if lines[0]["parent"] == nil {
		t.Error("nested span lost its parent")
	}
	if lines[1]["attrs"].(map[string]any)["cubes_in"] != float64(7) {
		t.Errorf("attrs = %v", lines[1]["attrs"])
	}
	for _, l := range lines {
		if l["trace"] != "m1" {
			t.Errorf("line missing trace label: %v", l)
		}
	}
	if lines[2]["type"] != "summary" || lines[2]["area"] != float64(128) {
		t.Errorf("emit record = %v", lines[2])
	}
}

// Spans ended at once by a run's worker goroutines reach a plain,
// unsynchronized writer as whole lines: the tracer serializes its own
// writes (a data race under -race, and lost or torn lines, otherwise).
func TestConcurrentEndsWriteWholeLines(t *testing.T) {
	const n = 16
	var buf bytes.Buffer
	tr := New()
	tr.SetWriter(&buf)
	ctx := With(context.Background(), tr)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Span(ctx, "task")
			sp.SetInt("k", 1)
			<-start
			sp.End()
		}()
	}
	close(start)
	wg.Wait()

	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		if rec["name"] != "task" {
			t.Fatalf("line = %v, want a task span", rec)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("stream has %d lines, want %d", lines, n)
	}
}

func TestMetricsCounters(t *testing.T) {
	var m Metrics
	m.EspressoIters.Add(3)
	m.TautMemoLookups.Add(10)
	m.TautMemoHits.Add(4)
	m.Add("algo.ok.iexact", 2)
	m.Max("pool.max_depth", 3)
	m.Max("pool.max_depth", 1) // must not lower
	m.Observe("search.work", 100)
	m.Observe("search.work", 3)

	c := m.Counters()
	if c["espresso.iterations"] != 3 || c["tautology.memo_lookups"] != 10 ||
		c["tautology.memo_hits"] != 4 || c["algo.ok.iexact"] != 2 ||
		c["pool.max_depth"] != 3 {
		t.Fatalf("counters = %v", c)
	}
	if _, ok := c["search.backtracks"]; ok {
		t.Error("zero counter should be omitted")
	}

	tr := New()
	tr.m = Metrics{}
	tr.m.Observe("h", 5)
	snap := tr.Snapshot()
	h, ok := snap.Hists["h"]
	if !ok || h.Count != 1 || h.Sum != 5 || h.MaxV != 5 {
		t.Fatalf("hist = %+v ok=%v", h, ok)
	}
}

func TestMetricsRace(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.SearchBacktracks.Add(1)
				m.Add("named", 1)
				m.Max("gauge", int64(j))
				m.Observe("hist", int64(j))
				m.Counters()
			}
		}()
	}
	wg.Wait()
	c := m.Counters()
	if c["search.backtracks"] != 800 || c["named"] != 800 || c["gauge"] != 99 {
		t.Fatalf("counters = %v", c)
	}
}
