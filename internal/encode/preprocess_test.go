package encode

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"nova/internal/constraint"
	"nova/internal/obs"
)

// TestPreprocessCounts pins prepConstraints' merge accounting on a
// hand-built list: the search.constraints.merged counter and the
// encode.preprocess span's attributes.
func TestPreprocessCounts(t *testing.T) {
	mk := func(v string, w int) constraint.Constraint {
		return constraint.Constraint{Set: constraint.MustFromString(v), Weight: w}
	}
	list := []constraint.Constraint{
		mk("110000", 3),
		mk("110000", 2), // duplicate: merged, weights folded
		mk("111110", 1), // kept, however large for the cube
		mk("100000", 9), // singleton: dropped
		mk("111111", 9), // universe: dropped
	}
	tracer := obs.New()
	var spans bytes.Buffer
	tracer.SetWriter(&spans)
	ics := prepConstraints(obs.With(context.Background(), tracer), list)
	if got := tracer.Metrics().Counters()["search.constraints.merged"]; got != 1 {
		t.Fatalf("search.constraints.merged = %d, want 1", got)
	}
	if !strings.Contains(spans.String(), `"constraints":2`) || !strings.Contains(spans.String(), `"merged":1`) {
		t.Fatalf("encode.preprocess span lacks constraints=2 merged=1: %s", spans.String())
	}
	if len(ics) != 2 {
		t.Fatalf("got %d constraints, want 2: %v", len(ics), ics)
	}
	if ics[0].Weight != 5 {
		t.Fatalf("duplicate weights not folded: %+v", ics[0])
	}
}
