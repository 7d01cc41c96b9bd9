package encode

import (
	"fmt"
	"testing"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/lru"
)

// searchMemoReset gives the test a fresh, empty search memo.
func searchMemoReset() { searchMemo = lru.New[searchVerdict](searchMemoEntries, nil) }

func paperConstraints() []constraint.Constraint {
	var ics []constraint.Constraint
	for _, v := range []string{"1110000", "0111000", "0000111", "1000110", "0000011", "0011000"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}
	return ics
}

// TestVerdictUsable pins the budget-transfer rules: an exhaustive
// verdict answers any probe whose budget would not have fired first,
// while a budget-truncated verdict only answers a probe with the exact
// same cap (a larger budget might have gone on to succeed).
func TestVerdictUsable(t *testing.T) {
	cases := []struct {
		name    string
		v       searchVerdict
		maxWork int
		want    bool
	}{
		{"exhaustive unbounded probe", searchVerdict{work: 50}, 0, true},
		{"exhaustive within budget", searchVerdict{work: 50}, 50, true},
		{"exhaustive over budget", searchVerdict{work: 50}, 49, false},
		{"budget same cap", searchVerdict{budget: true, cap: 100, work: 100}, 100, true},
		{"budget larger cap", searchVerdict{budget: true, cap: 100, work: 100}, 200, false},
		{"budget smaller cap", searchVerdict{budget: true, cap: 100, work: 100}, 50, false},
		{"budget unbounded probe", searchVerdict{budget: true, cap: 100, work: 100}, 0, false},
	}
	for _, c := range cases {
		if got := c.v.usable(c.maxWork); got != c.want {
			t.Errorf("%s: usable(%d) = %v, want %v", c.name, c.maxWork, got, c.want)
		}
	}
}

// TestSearchMemoLRU exercises the search memo through recordSearch: the
// bound holds across inserts, the run just recorded is resident, a run
// recorded again under a live key replaces its verdict without adding an
// entry, and a reset memo has the default bound again.
func TestSearchMemoLRU(t *testing.T) {
	searchMemo = lru.New[searchVerdict](lru.Shards, nil) // one entry per shard
	defer searchMemoReset()

	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		recordSearch(key, &searcher{work: i}, encoding.Encoding{}, false)
		// The entry just inserted is at its shard's front and must be
		// present.
		if v, ok := searchMemo.Get(key); !ok || v.work != i {
			t.Fatalf("just-inserted key %q missing (ok=%v work=%d)", key, ok, v.work)
		}
	}
	if n := searchMemo.Stats().Entries; n > lru.Shards {
		t.Fatalf("memo holds %d entries, cap is %d", n, lru.Shards)
	}

	// Re-recording a live key must not duplicate it or alter the count.
	before := searchMemo.Stats().Entries
	recordSearch("k199", &searcher{work: 1}, encoding.Encoding{}, false)
	if n := searchMemo.Stats().Entries; n != before {
		t.Fatalf("re-put changed entry count %d -> %d", before, n)
	}
	// The later verdict wins.
	if v, ok := searchMemo.Get("k199"); !ok || v.work != 1 {
		t.Fatalf("re-put key: ok=%v work=%d, want the later verdict (work 1)", ok, v.work)
	}

	searchMemoReset()
	for i := 0; i < 100; i++ {
		recordSearch(fmt.Sprintf("d%d", i), &searcher{}, encoding.Encoding{}, false)
	}
	if n := searchMemo.Stats().Entries; n != 100 {
		t.Fatalf("default bound not restored: %d entries after 100 inserts", n)
	}
}

// TestSemiexactRunMemoReplay runs the same embedding problem twice and
// checks the replay is observationally identical to the live run: same
// verdict, same encoding, and every searcher tally restored.
func TestSemiexactRunMemoReplay(t *testing.T) {
	searchMemoReset()
	defer searchMemoReset()
	ics := paperConstraints()

	live := semiexactRun(nil, 7, ics, 4, 0, nil)
	if live.s.memoHit {
		t.Fatal("first run hit a memo that was just reset")
	}
	if !live.ok {
		t.Fatal("paper instance at k=4 should embed")
	}

	replay := semiexactRun(nil, 7, ics, 4, 0, nil)
	if !replay.s.memoHit {
		t.Fatal("second identical run missed the memo")
	}
	if replay.ok != live.ok || replay.work != live.work {
		t.Fatalf("replay verdict (ok=%v work=%d) != live (ok=%v work=%d)",
			replay.ok, replay.work, live.ok, live.work)
	}
	ls, rs := live.s, replay.s
	if rs.work != ls.work || rs.backtracks != ls.backtracks ||
		rs.checksOK != ls.checksOK || rs.checksFail != ls.checksFail ||
		rs.symPruned != ls.symPruned || rs.budget != ls.budget || rs.solved != ls.solved {
		t.Fatalf("replay tallies diverge: live=%+v replay=%+v", ls, rs)
	}
	le, re := live.enc, replay.enc
	if le.Bits != re.Bits || len(le.Codes) != len(re.Codes) {
		t.Fatalf("replay encoding shape differs: %v vs %v", le, re)
	}
	for i := range le.Codes {
		if le.Codes[i] != re.Codes[i] {
			t.Fatalf("replay code %d differs: %x vs %x", i, le.Codes[i], re.Codes[i])
		}
	}
	// The replayed encoding is a copy — mutating it must not poison the
	// cached entry.
	re.Codes[0] ^= 1
	again := semiexactRun(nil, 7, ics, 4, 0, nil)
	if again.enc.Codes[0] != le.Codes[0] {
		t.Fatal("mutating a replayed encoding corrupted the memo entry")
	}
}

// TestMemoBudgetRegimes checks the cap-compatibility rules end to end: a
// budget-truncated entry replays only at the exact same cap.
func TestMemoBudgetRegimes(t *testing.T) {
	searchMemoReset()
	defer searchMemoReset()
	ics := paperConstraints()

	// maxWork=3 cannot solve the paper instance: a budget verdict.
	first := semiexactRun(nil, 7, ics, 4, 3, nil)
	if first.ok || !first.s.budget {
		t.Fatalf("expected a budget failure, got ok=%v budget=%v", first.ok, first.s.budget)
	}

	// Same cap: replayed.
	same := semiexactRun(nil, 7, ics, 4, 3, nil)
	if !same.s.memoHit {
		t.Fatal("same-cap probe missed the budget verdict")
	}
	// Larger cap: the probe rejects the budget verdict via usable, so the
	// run is live (and succeeds, replacing the entry).
	larger := semiexactRun(nil, 7, ics, 4, 0, nil)
	if larger.s.memoHit {
		t.Fatal("unbounded probe replayed a budget-truncated verdict")
	}
	if !larger.ok {
		t.Fatal("unbounded run should embed the paper instance")
	}
}

// TestSemiexactRefutation: the four 3-state subsets of four states,
// among 7 states in the 3-cube, each need the one unused code inside
// their face, and only three 2-faces meet at a code. semiexactRun
// refutes the step without a search, memoizes the verdict and replays
// it at any budget; the unpruned searcher searches and fails.
func TestSemiexactRefutation(t *testing.T) {
	searchMemoReset()
	defer searchMemoReset()
	var ics []constraint.Constraint
	for _, v := range []string{"1110000", "1101000", "1011000", "0111000"} {
		ics = append(ics, constraint.Constraint{Set: constraint.MustFromString(v), Weight: 1})
	}

	if np := unprunedSemiexact(7, ics, 3, 0); np.solved || np.work == 0 {
		t.Fatalf("unpruned search: solved=%v work=%d, want a searched failure", np.solved, np.work)
	}
	live := semiexactRun(nil, 7, ics, 3, 0, nil)
	if live.ok || !live.s.refuted || live.work != 0 || live.s.budget || live.s.memoHit {
		t.Fatalf("semiexactRun: ok=%v refuted=%v work=%d budget=%v memoHit=%v, want a fresh refutation",
			live.ok, live.s.refuted, live.work, live.s.budget, live.s.memoHit)
	}
	replay := semiexactRun(nil, 7, ics, 3, 1, nil)
	if replay.ok || !replay.s.refuted || !replay.s.memoHit {
		t.Fatalf("replay at budget 1: ok=%v refuted=%v memoHit=%v, want a replayed refutation",
			replay.ok, replay.s.refuted, replay.s.memoHit)
	}
}

// TestChainKeyDiscriminates makes sure the key covers every input that
// changes the searcher's behavior.
func TestChainKeyDiscriminates(t *testing.T) {
	ics := paperConstraints()
	base := chainKey(7, 4, ics, nil)
	if k := chainKey(7, 3, ics, nil); k == base {
		t.Fatal("cube dimension not keyed")
	}
	if k := chainKey(8, 4, ics, nil); k == base {
		t.Fatal("symbol count not keyed")
	}
	if k := chainKey(7, 4, ics[:5], nil); k == base {
		t.Fatal("constraint list not keyed")
	}
	if k := chainKey(7, 4, ics, []OCEdge{{U: 1, V: 2}}); k == base {
		t.Fatal("output covering edges not keyed")
	}
	rev := []OCEdge{{U: 2, V: 1}}
	if chainKey(7, 4, ics, rev) == chainKey(7, 4, ics, []OCEdge{{U: 1, V: 2}}) {
		t.Fatal("edge direction not keyed")
	}
}
