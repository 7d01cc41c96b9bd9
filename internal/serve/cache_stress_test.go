package serve

// Stress test of the sharded result cache, meant to run under -race:
// concurrent writers insert across every shard while the byte budget
// forces evictions, readers replay hot keys, and the invariants hold
// throughout — replayed bytes are exactly what was inserted, the byte
// gauge never exceeds the budget, and no entry is lost except to
// eviction.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nova/internal/lru"
)

func TestCacheConcurrentEvictionStress(t *testing.T) {
	const (
		writers    = 8
		readers    = 4
		keysPerW   = 400
		valBytes   = 256
		budget     = lru.Shards * 8 * valBytes // ~8 entries per shard: constant evictions
		hotEntries = 16
	)
	c := NewCache(budget)

	// Every key's value is derived from the key, so a replay can be
	// checked without tracking inserts: mutation or cross-key mixups
	// surface as content mismatches.
	valueOf := func(key string) []byte {
		v := make([]byte, valBytes)
		copy(v, key)
		return v
	}
	keyOf := func(w, i int) string { return fmt.Sprintf("writer-%d-key-%d", w, i) }

	// Hot keys are re-Put and re-Get continuously from every worker: the
	// LRU promotion path and the overwrite path run against evictions.
	hot := make([]string, hotEntries)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot-%d", i)
		c.Put(hot[i], valueOf(hot[i]))
	}

	var bad atomic.Int64
	check := func(key string, val []byte) {
		want := valueOf(key)
		if len(val) != len(want) {
			bad.Add(1)
			return
		}
		for i := range val {
			if val[i] != want[i] {
				bad.Add(1)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keysPerW; i++ {
				key := keyOf(w, i)
				c.Put(key, valueOf(key))
				// Immediately replay this writer's own insert and a hot
				// key; both may have been evicted (ok) but must never
				// come back with foreign bytes.
				if val, ok := c.Get(key); ok {
					check(key, val)
				}
				h := hot[i%hotEntries]
				c.Put(h, valueOf(h))
				if val, ok := c.Get(h); ok {
					check(h, val)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writers*keysPerW; i++ {
				key := keyOf(i%writers, i%keysPerW)
				if val, ok := c.Get(key); ok {
					check(key, val)
				}
			}
		}()
	}
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d replays returned corrupted or foreign bytes", n)
	}
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", st.Bytes, budget)
	}
	if st.Entries == 0 {
		t.Fatal("stress run left the cache empty")
	}
	if st.Evictions == 0 {
		t.Fatal("budget never forced an eviction — the stress did not stress")
	}

	// Post-quiescence accounting: the byte gauge equals the sum of the
	// live values, and every surviving key still replays its own bytes.
	var live int64
	for w := 0; w < writers; w++ {
		for i := 0; i < keysPerW; i++ {
			if val, ok := c.Get(keyOf(w, i)); ok {
				check(keyOf(w, i), val)
				live += int64(len(val))
			}
		}
	}
	for i := range hot {
		if val, ok := c.Get(hot[i]); ok {
			check(hot[i], val)
			live += int64(len(val))
		}
	}
	if live != st.Bytes {
		t.Fatalf("byte gauge %d != %d live bytes (lost-update in eviction accounting)", st.Bytes, live)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d post-quiescence replays corrupted", n)
	}
}
