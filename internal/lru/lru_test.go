package lru

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"testing"
)

func key(i uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return string(b[:])
}

// TestGetPut checks round trips, misses and the counters.
func TestGetPut(t *testing.T) {
	c := New[bool](1<<10, nil)
	c.Put(key(1), true)
	c.Put(key(2), false)
	if v, ok := c.Get(key(1)); !ok || !v {
		t.Fatalf("Get(1) = %v,%v, want true,true", v, ok)
	}
	if v, ok := c.Get(key(2)); !ok || v {
		t.Fatalf("Get(2) = %v,%v, want false,true", v, ok)
	}
	if _, ok := c.Get(key(3)); ok {
		t.Fatal("Get(3) hit on a key never inserted")
	}
	if st := c.Stats(); st.Entries != 2 || st.Cost != 2 || st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBound checks the cap: after inserting far more entries than the
// bound, the cache holds at most the bound, every shard reuses evicted
// slots instead of growing, and the freshest insert is resident.
func TestBound(t *testing.T) {
	const bound, n = 64, 4096 // 4 per shard
	c := New[uint64](bound, nil)
	for i := uint64(0); i < n; i++ {
		c.Put(key(i), i)
		if v, ok := c.Get(key(i)); !ok || v != i {
			t.Fatalf("just-inserted key %d = %v,%v", i, v, ok)
		}
	}
	st := c.Stats()
	if st.Entries > bound || st.Cost != st.Entries {
		t.Fatalf("stats %+v after %d inserts, bound %d", st, n, bound)
	}
	if st.Evictions != n-st.Entries {
		t.Fatalf("%d evictions, want %d", st.Evictions, n-st.Entries)
	}
	for i := range c.shards {
		if got := c.shards[i].n; got > bound/Shards {
			t.Fatalf("shard %d grew to %d slots, its bound is %d", i, got, bound/Shards)
		}
	}
}

// TestCostBound checks a bound in value cost: each shard holds at most
// its share of the total length, the held cost is the sum of the live
// values, and a value over a shard's share is not admitted.
func TestCostBound(t *testing.T) {
	const bound = Shards * 64
	c := New[[]byte](bound, func(v []byte) int64 { return int64(len(v)) })
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprint(i), make([]byte, 1+i%40))
	}
	var live int64
	for i := 0; i < 500; i++ {
		if v, ok := c.Get(fmt.Sprint(i)); ok {
			live += int64(len(v))
		}
	}
	st := c.Stats()
	if st.Cost > bound || st.Cost != live {
		t.Fatalf("held cost %d, live bytes %d, bound %d", st.Cost, live, bound)
	}
	c.Put("big", make([]byte, 65))
	if _, ok := c.Get("big"); ok {
		t.Fatal("value over a shard's share was admitted")
	}
}

// sameShardKeys returns n distinct keys that hash to one shard of c.
func sameShardKeys[V any](c *Cache[V], n int) []string {
	want := maphash.String(c.seed, "k0") % Shards
	keys := []string{"k0"}
	for i := 1; len(keys) < n; i++ {
		if k := fmt.Sprint("k", i); maphash.String(c.seed, k)%Shards == want {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRecency checks the eviction order and the refresh paths: a Get
// protects an entry from the next eviction, and a re-Put of a live key
// replaces its value and refreshes it without adding an entry.
func TestRecency(t *testing.T) {
	c := New[int](2*Shards, nil) // two entries per shard
	k := sameShardKeys(c, 3)
	c.Put(k[0], 0)
	c.Put(k[1], 1)
	if _, ok := c.Get(k[0]); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(k[2], 2) // evicts k[1], the cold one
	if _, ok := c.Get(k[1]); ok {
		t.Fatal("cold entry survived over the warm one")
	}
	c.Put(k[0], 10) // k[0] is now the warm one again
	c.Put(k[1], 1)  // evicts k[2]
	if _, ok := c.Get(k[2]); ok {
		t.Fatal("re-Put did not refresh recency")
	}
	// The later value wins.
	if v, ok := c.Get(k[0]); !ok || v != 10 {
		t.Fatalf("re-Put key = %v,%v, want 10,true", v, ok)
	}
	for i := 0; i < 100; i++ {
		c.Put(k[0], i)
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("%d entries after re-puts of live keys, want 2", n)
	}
}

// TestConcurrent hammers one cache from many goroutines (run under -race
// in CI): concurrent readers and writers against overlapping keys, with
// eviction pressure from a small bound.
func TestConcurrent(t *testing.T) {
	const bound = 256
	c := New[bool](bound, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := key(i % 512)
				if v, ok := c.Get(k); ok && v != (i%512%2 == 0) {
					t.Errorf("worker %d: wrong value for key %d", w, i%512)
					return
				}
				c.Put(k, i%512%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > bound || st.Cost != st.Entries || st.Evictions == 0 {
		t.Fatalf("stats %+v under concurrency, bound %d", st, bound)
	}
}
