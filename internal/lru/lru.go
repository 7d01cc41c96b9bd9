// Package lru is the module's one bounded cache: a concurrency-safe
// least-recently-used map from string keys to values, split into
// independently locked shards. It backs the failed-embedding memo
// (package encode) and novad's result cache (package serve).
//
// The bound is a total cost fixed when the cache is built. Each shard
// owns an equal share of it and evicts from its own cold end, so the
// cache never holds more than the bound however keys spread.
package lru

import (
	"hash/maphash"
	"sync"
)

// Shards is the number of independently locked shards: enough to keep
// lock contention negligible at the pool sizes sched builds and at the
// server's admission bound, without fragmenting the cost bound into
// uselessly small slices.
const Shards = 16

// Cache is a sharded, cost-bounded LRU. Build one with New.
type Cache[V any] struct {
	seed   maphash.Seed
	cost   func(V) int64
	limit  int64 // cost bound of each shard
	shards [Shards]shard[V]
}

// shard is one lock's worth of the cache: a key index over an entry
// arena threaded into an intrusive doubly linked LRU list. Its counters
// are plain ints because every update already holds mu.
type shard[V any] struct {
	mu     sync.Mutex
	m      map[string]int32
	blocks []*[blockLen]entry[V] // the arena: slot i is in block i/blockLen
	n      int32                 // slots handed out
	head   int32                 // most recently used; -1 when empty
	tail   int32                 // least recently used; -1 when empty
	free   int32                 // free-list head, chained through next; -1 when empty
	held   int64                 // total cost of the live entries

	hits, misses, evictions int64
}

// blockLen is the number of entries per arena block. A growing shard
// adds blocks instead of copying one ever larger array: with one array
// per shard, best-cold's peak RSS measured about 5 MiB higher (when the
// cache also held tautology verdicts, some 3×10^5 of them).
const blockLen = 256

type entry[V any] struct {
	key        string
	val        V
	prev, next int32
}

// New returns a cache bounded to maxCost in total, split evenly over the
// shards (at least 1 each). cost gives an entry's share of the bound and
// must depend on the value alone; nil counts every entry as 1.
func New[V any](maxCost int64, cost func(V) int64) *Cache[V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	c := &Cache[V]{seed: maphash.MakeSeed(), cost: cost, limit: max(maxCost/Shards, 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.m = make(map[string]int32)
		sh.head, sh.tail, sh.free = -1, -1, -1
	}
	return c
}

// Get returns the value stored under key and whether it was present,
// making a hit the most recently used entry of its shard.
func (c *Cache[V]) Get(key string) (V, bool) {
	sh := &c.shards[maphash.String(c.seed, key)%Shards]
	sh.mu.Lock()
	i, ok := sh.m[key]
	var v V
	if ok {
		sh.hits++
		if sh.head != i {
			sh.unlink(i)
			sh.pushFront(i)
		}
		v = sh.at(i).val
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return v, ok
}

// Put stores v under key as the most recently used entry of its shard,
// replacing the value of a live key, and evicts from the shard's cold
// end while the shard is over its share of the bound. A value costing
// more than a whole share is not admitted: it would evict everything
// else to keep one entry.
func (c *Cache[V]) Put(key string, v V) {
	cost := c.cost(v)
	if cost > c.limit {
		return
	}
	sh := &c.shards[maphash.String(c.seed, key)%Shards]
	sh.mu.Lock()
	i, live := sh.m[key]
	if live {
		sh.unlink(i)
		sh.held -= c.cost(sh.at(i).val)
	}
	for sh.held+cost > c.limit && sh.tail >= 0 {
		j := sh.tail
		sh.unlink(j)
		e := sh.at(j)
		sh.held -= c.cost(e.val)
		delete(sh.m, e.key)
		*e = entry[V]{next: sh.free} // drop key and value for the GC
		sh.free = j
		sh.evictions++
	}
	if !live {
		if sh.free >= 0 {
			i = sh.free
			sh.free = sh.at(i).next
		} else {
			if sh.n%blockLen == 0 {
				sh.blocks = append(sh.blocks, new([blockLen]entry[V]))
			}
			i = sh.n
			sh.n++
		}
		sh.at(i).key = key
		sh.m[key] = i
	}
	sh.at(i).val = v
	sh.held += cost
	sh.pushFront(i)
	sh.mu.Unlock()
}

// Stats is a point-in-time summary of a cache.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
	Cost      int64 // total cost held; at most the bound given to New
}

// Stats sums the shards' counters.
func (c *Cache[V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += int64(len(sh.m))
		st.Cost += sh.held
		sh.mu.Unlock()
	}
	return st
}

func (sh *shard[V]) at(i int32) *entry[V] { return &sh.blocks[i/blockLen][i%blockLen] }

// unlink removes entry i from the LRU list.
func (sh *shard[V]) unlink(i int32) {
	e := sh.at(i)
	if e.prev >= 0 {
		sh.at(e.prev).next = e.next
	} else {
		sh.head = e.next
	}
	if e.next >= 0 {
		sh.at(e.next).prev = e.prev
	} else {
		sh.tail = e.prev
	}
}

// pushFront makes entry i the most recently used.
func (sh *shard[V]) pushFront(i int32) {
	e := sh.at(i)
	e.prev, e.next = -1, sh.head
	if sh.head >= 0 {
		sh.at(sh.head).prev = i
	}
	sh.head = i
	if sh.tail < 0 {
		sh.tail = i
	}
}
