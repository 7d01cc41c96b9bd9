package cube

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// The tautology memo caches unate-recursion verdicts keyed by the
// canonical serialized content of a cover. Keys are content-exact, so a
// hit can never be wrong; entries stay valid forever, which is why one
// memo is shared by every Structure of a layout (and by every arena —
// concurrent encodes of one layout probe it at once).
//
// The cache is bounded: a sharded LRU whose global capacity is set by
// SetTautMemoCap. Long EncodeAll sweeps over large covers therefore
// reach a steady state instead of growing without limit, trading re-runs
// of the cheapest (least recently useful) recursions for bounded memory.

// memoShards is the number of independently locked LRU shards. Sixteen
// keeps lock contention negligible at the pool sizes sched builds
// (bounded by GOMAXPROCS) while the per-shard LRU stays dense.
const memoShards = 16

// DefaultTautMemoCap is the default global entry bound — generous: at
// the benchmark suite's typical key sizes (tens to hundreds of bytes)
// the memo tops out in the tens of megabytes.
const DefaultTautMemoCap = 1 << 15

var tautMemoCap atomic.Int64

func init() { tautMemoCap.Store(DefaultTautMemoCap) }

// SetTautMemoCap bounds the process-wide tautology memo at n entries
// (spread evenly over the internal shards). n <= 0 restores the
// default. The bound applies lazily: shards evict on their next insert.
func SetTautMemoCap(n int) {
	if n <= 0 {
		n = DefaultTautMemoCap
	}
	tautMemoCap.Store(int64(n))
}

// shardCap is the per-shard entry bound (at least 1).
func shardCap() int {
	c := int(tautMemoCap.Load()) / memoShards
	if c < 1 {
		c = 1
	}
	return c
}

// memoSeed is the process-wide key hash seed.
var memoSeed = maphash.MakeSeed()

// tautMemos maps a layout key to the shared memo of that layout.
var tautMemos sync.Map

func memoForLayout(key string) *tautMemo {
	if m, ok := tautMemos.Load(key); ok {
		return m.(*tautMemo)
	}
	m, _ := tautMemos.LoadOrStore(key, newTautMemo())
	return m.(*tautMemo)
}

// tautMemo is a sharded, bounded, concurrency-safe verdict cache.
type tautMemo struct {
	shards [memoShards]memoShard
}

func newTautMemo() *tautMemo {
	m := &tautMemo{}
	for i := range m.shards {
		m.shards[i].init()
	}
	return m
}

// memoShard is one lock's worth of the cache: a key index over an
// entry arena threaded into an intrusive doubly-linked LRU list.
type memoShard struct {
	mu      sync.Mutex
	m       map[string]int32
	entries []memoEntry
	head    int32 // most recently used; -1 when empty
	tail    int32 // least recently used; -1 when empty
	free    int32 // free-list head (chained through next); -1 when empty
}

type memoEntry struct {
	key        string
	prev, next int32
	verdict    bool
}

func (sh *memoShard) init() {
	sh.m = make(map[string]int32)
	sh.head, sh.tail, sh.free = -1, -1, -1
}

// unlink removes entry i from the LRU list.
func (sh *memoShard) unlink(i int32) {
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

// pushFront makes entry i the most recently used.
func (sh *memoShard) pushFront(i int32) {
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

// get looks key up and, on a hit, refreshes its recency. The []byte key
// is only read during the call, so callers may reuse the buffer.
func (m *tautMemo) get(key []byte) (verdict, ok bool) {
	sh := &m.shards[maphash.Bytes(memoSeed, key)&(memoShards-1)]
	sh.mu.Lock()
	i, ok := sh.m[string(key)] // no-copy map probe
	if ok {
		verdict = sh.entries[i].verdict
		if sh.head != i {
			sh.unlink(i)
			sh.pushFront(i)
		}
	}
	sh.mu.Unlock()
	return verdict, ok
}

// put records a verdict, evicting the least recently used entry of the
// shard when it is at capacity. The key bytes are copied.
func (m *tautMemo) put(key []byte, verdict bool) {
	sh := &m.shards[maphash.Bytes(memoSeed, key)&(memoShards-1)]
	sh.mu.Lock()
	if i, ok := sh.m[string(key)]; ok {
		// Content-exact keys can never change verdict; just refresh.
		if sh.head != i {
			sh.unlink(i)
			sh.pushFront(i)
		}
		sh.mu.Unlock()
		return
	}
	cap := shardCap()
	for len(sh.m) >= cap && sh.tail >= 0 {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.m, sh.entries[victim].key)
		sh.entries[victim].key = ""
		sh.entries[victim].next = sh.free
		sh.free = victim
	}
	var i int32
	if sh.free >= 0 {
		i = sh.free
		sh.free = sh.entries[i].next
	} else {
		sh.entries = append(sh.entries, memoEntry{})
		i = int32(len(sh.entries) - 1)
	}
	sh.entries[i].key = string(key)
	sh.entries[i].verdict = verdict
	sh.m[sh.entries[i].key] = i
	sh.pushFront(i)
	sh.mu.Unlock()
}

// len returns the number of cached entries (for tests).
func (m *tautMemo) len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
