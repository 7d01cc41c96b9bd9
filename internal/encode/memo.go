package encode

import (
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nova/internal/constraint"
	"nova/internal/encoding"
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
// Like the cube package's tautology memo, the cache is a process-global
// sharded LRU bounded by SetSearchMemoCap.

// searchMemoShards is the number of independently locked LRU shards.
const searchMemoShards = 16

// DefaultSearchMemoCap is the default global entry bound. Entries carry
// the winning code vector (a handful of words), so the memo stays small
// even when full.
const DefaultSearchMemoCap = 1 << 14

var searchMemoCap atomic.Int64

func init() { searchMemoCap.Store(DefaultSearchMemoCap) }

// SetSearchMemoCap bounds the process-wide failed-embedding memo at n
// entries (spread evenly over the internal shards). n <= 0 restores the
// default. The bound applies lazily: shards evict on their next insert.
func SetSearchMemoCap(n int) {
	if n <= 0 {
		n = DefaultSearchMemoCap
	}
	searchMemoCap.Store(int64(n))
}

func searchShardCap() int {
	c := int(searchMemoCap.Load()) / searchMemoShards
	if c < 1 {
		c = 1
	}
	return c
}

// searchVerdict is one memoized embedding run.
type searchVerdict struct {
	ok         bool // embedding found
	budget     bool // run stopped on its work budget
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

var searchMemoSeed = maphash.MakeSeed()

var searchMemo = func() *embedMemo {
	m := &embedMemo{}
	for i := range m.shards {
		m.shards[i].init()
	}
	return m
}()

type embedMemo struct {
	shards [searchMemoShards]embedShard
}

type embedShard struct {
	mu      sync.Mutex
	m       map[string]int32
	entries []embedEntry
	head    int32
	tail    int32
	free    int32
}

type embedEntry struct {
	key        string
	prev, next int32
	v          searchVerdict
}

func (sh *embedShard) init() {
	sh.m = make(map[string]int32)
	sh.head, sh.tail, sh.free = -1, -1, -1
}

func (sh *embedShard) unlink(i int32) {
	e := &sh.entries[i]
	if e.prev >= 0 {
		sh.entries[e.prev].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next >= 0 {
		sh.entries[e.next].prev = e.prev
	} else {
		sh.tail = e.prev
	}
}

func (sh *embedShard) pushFront(i int32) {
	e := &sh.entries[i]
	e.prev, e.next = -1, sh.head
	if sh.head >= 0 {
		sh.entries[sh.head].prev = i
	}
	sh.head = i
	if sh.tail < 0 {
		sh.tail = i
	}
}

// get looks key up and, on a hit, refreshes its recency and returns a
// copy of the verdict (the codes slice is shared — callers must not
// mutate it; extract copies before handing it out).
func (m *embedMemo) get(key string) (searchVerdict, bool) {
	sh := &m.shards[maphash.String(searchMemoSeed, key)&(searchMemoShards-1)]
	sh.mu.Lock()
	i, ok := sh.m[key]
	var v searchVerdict
	if ok {
		v = sh.entries[i].v
		if sh.head != i {
			sh.unlink(i)
			sh.pushFront(i)
		}
	}
	sh.mu.Unlock()
	return v, ok
}

// put records a verdict, evicting the least recently used entry of the
// shard when it is at capacity.
func (m *embedMemo) put(key string, v searchVerdict) {
	sh := &m.shards[maphash.String(searchMemoSeed, key)&(searchMemoShards-1)]
	sh.mu.Lock()
	if i, ok := sh.m[key]; ok {
		if sh.head != i {
			sh.unlink(i)
			sh.pushFront(i)
		}
		sh.mu.Unlock()
		return
	}
	cap := searchShardCap()
	for len(sh.m) >= cap && sh.tail >= 0 {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, sh.entries[victim].key)
		sh.entries[victim] = embedEntry{key: "", next: sh.free}
		sh.free = victim
	}
	var i int32
	if sh.free >= 0 {
		i = sh.free
		sh.free = sh.entries[i].next
	} else {
		sh.entries = append(sh.entries, embedEntry{})
		i = int32(len(sh.entries) - 1)
	}
	sh.entries[i] = embedEntry{key: key, v: v}
	sh.m[key] = i
	sh.pushFront(i)
	sh.mu.Unlock()
}

func (m *embedMemo) len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// searchMemoReset drops every cached entry (tests only).
func searchMemoReset() {
	for i := range searchMemo.shards {
		sh := &searchMemo.shards[i]
		sh.mu.Lock()
		sh.init()
		sh.entries = nil
		sh.mu.Unlock()
	}
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
	searchMemo.put(key, v)
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
		solved:     v.ok,
		memoHit:    true,
		memoHits:   1,
		memoEnc:    encoding.Encoding{Bits: v.bits, Codes: v.codes},
	}
}
