package encode

import (
	"strconv"
	"strings"

	"nova/internal/constraint"
	"nova/internal/encoding"
	"nova/internal/lru"
)

// The search memo caches embedding-run verdicts keyed by the exact
// problem content: symbol count, cube dimension, the constraint sets
// handed to the searcher (in order) and, for iexact vector runs, the
// canonical graph key plus the dimension vector. Keys are
// content-exact, so a hit can never be wrong about the verdict — but a
// bounded search's verdict also depends on the work budget, so each
// entry records the budget regime it was produced under and is replayed
// only into a compatible probe (see searchVerdict.usable).
//
// Replays restore every searcher tally (work, backtracks, face checks),
// so a memo hit is observationally identical to re-running the search:
// counters and Result fields read "as if executed".
//
// The cache is one process-wide LRU. Only a run that found no usable
// verdict is recorded, and it replaces the verdict held under its key
// (say, an exhaustive run after a budget-truncated one), so each key
// holds its latest verdict; usable still guards every replay. A hit's
// codes slice is shared with the memo: callers must not mutate it
// (extract copies it out).

// searchMemoEntries bounds the search memo. Entries carry the winning
// code vector (a handful of words), so the memo stays small even when
// full; the benchmark workloads peak below 10^4 entries.
const searchMemoEntries = 1 << 14

var searchMemo = lru.New[searchVerdict](searchMemoEntries, nil)

// searchVerdict is one memoized embedding run.
type searchVerdict struct {
	ok         bool // embedding found
	budget     bool // run stopped on its work budget
	refuted    bool // rejected without a search (Graph.Fits or minLevelsFit)
	cap        int  // the maxWork the run was produced under (0 = unbounded)
	work       int
	backtracks int
	checksOK   int
	checksFail int
	symPruned  int
	// codes/bits hold the found encoding when ok.
	codes []uint64
	bits  int
}

// usable reports whether a stored verdict answers a probe with the
// given work budget. An exhaustive verdict (search space fully
// explored) transfers to any budget that would not have fired first; a
// budget verdict is only the answer for the exact same cap, since a
// larger budget might have gone on to succeed.
func (v *searchVerdict) usable(maxWork int) bool {
	if v.budget {
		return maxWork > 0 && maxWork == v.cap
	}
	return maxWork <= 0 || v.work <= maxWork
}

// chainKey builds the memo key of a semiexact run: symbol count, cube
// dimension, the constraint set keys in hand-over order, and the output
// covering edges. Weights are excluded — the searcher never reads them.
func chainKey(n, k int, sic []constraint.Constraint, oc []OCEdge) string {
	var b strings.Builder
	b.Grow(16 + len(sic)*(n/4+2) + len(oc)*8)
	b.WriteString("C|")
	b.WriteString(strconv.Itoa(n))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	for _, c := range sic {
		b.WriteByte('|')
		b.WriteString(c.Set.Key())
	}
	if len(oc) > 0 {
		b.WriteByte(';')
		for _, e := range oc {
			b.WriteString(strconv.Itoa(e.U))
			b.WriteByte('>')
			b.WriteString(strconv.Itoa(e.V))
			b.WriteByte(',')
		}
	}
	return b.String()
}

// vectorKey builds the memo key of an iexact dimension-vector run: the
// canonical graph content, cube dimension, and the level vector.
func vectorKey(g *constraint.Graph, k int, dimvect []int) string {
	var b strings.Builder
	ck := g.CanonKey()
	b.Grow(8 + len(ck) + len(dimvect)*3)
	b.WriteString("V|")
	b.WriteString(ck)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	b.WriteByte('|')
	for _, d := range dimvect {
		b.WriteString(strconv.Itoa(d))
		b.WriteByte(',')
	}
	return b.String()
}

// recordSearch stores a finished run in the memo. Canceled runs are
// never recorded — their tallies reflect where cancellation landed, not
// the problem.
func recordSearch(key string, s *searcher, enc encoding.Encoding, ok bool) {
	if s.canceled || s.memoHit {
		return
	}
	v := searchVerdict{
		ok:         ok,
		budget:     s.budget,
		refuted:    s.refuted,
		cap:        s.maxWork,
		work:       s.work,
		backtracks: s.backtracks,
		checksOK:   s.checksOK,
		checksFail: s.checksFail,
		symPruned:  s.symPruned,
	}
	if ok {
		v.codes = append([]uint64(nil), enc.Codes...)
		v.bits = enc.Bits
	}
	searchMemo.Put(key, v)
}

// replaySearcher builds a searcher presenting a memoized run's
// observable state: all tallies restored, flushMetrics and extract
// behave exactly as the original run's would have. It carries no graph —
// only flushMetrics and extract may be called on it.
func replaySearcher(v searchVerdict) *searcher {
	return &searcher{
		maxWork:    v.cap,
		work:       v.work,
		backtracks: v.backtracks,
		checksOK:   v.checksOK,
		checksFail: v.checksFail,
		symPruned:  v.symPruned,
		budget:     v.budget,
		refuted:    v.refuted,
		solved:     v.ok,
		memoHit:    true,
		memoHits:   1,
		memoEnc:    encoding.Encoding{Bits: v.bits, Codes: v.codes},
	}
}
