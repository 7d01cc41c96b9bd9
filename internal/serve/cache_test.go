package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"nova"
	"nova/internal/lru"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("a", []byte("payload"))
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Overwrite in place keeps one entry.
	c.Put("a", []byte("other"))
	got, _ = c.Get("a")
	if !bytes.Equal(got, []byte("other")) {
		t.Fatalf("overwrite lost: %q", got)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes != int64(len("other")) {
		t.Fatalf("bytes gauge = %d, want %d", st.Bytes, len("other"))
	}
}

func TestCacheEvictsColdEntries(t *testing.T) {
	// Budget of 64 bytes per shard (16 shards x 64). Values of 32 bytes:
	// a shard holds at most two, so a third key landing on the same shard
	// evicts that shard's coldest.
	c := NewCache(16 * 64)
	val := bytes.Repeat([]byte("x"), 32)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key-%d", i), val)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after overfilling every shard")
	}
	if st.Bytes > 16*64 {
		t.Fatalf("cache holds %d bytes, budget is %d", st.Bytes, 16*64)
	}
	if st.Entries == 0 {
		t.Fatal("eviction emptied the cache")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Budget for two 32-byte values per shard. Reading "warm" after every
	// insert keeps it the most recent entry of its shard, so each insert
	// landing there evicts the cold neighbour, never it.
	c := NewCache(lru.Shards * 64)
	val := bytes.Repeat([]byte("v"), 32)
	c.Put("warm", val)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("key-%d", i), val)
		if _, ok := c.Get("warm"); !ok {
			t.Fatalf("warm entry evicted by insert %d", i)
		}
	}
	if st := c.Stats(); st.Evictions == 0 || st.Entries > 2*lru.Shards {
		t.Fatalf("stats %+v after overfilling every shard", st)
	}
	if _, ok := c.Get("key-99"); !ok {
		t.Fatal("new entry missing")
	}
}

func TestCacheRejectsOversizedValue(t *testing.T) {
	c := NewCache(16 * 8) // 8 bytes per shard
	c.Put("big", bytes.Repeat([]byte("x"), 9))
	if _, ok := c.Get("big"); ok {
		t.Fatal("value over the shard budget was admitted")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after rejected put: %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, []byte(key))
				if v, ok := c.Get(key); ok && string(v) != key {
					t.Errorf("key %s holds %q", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFlightsCollapse(t *testing.T) {
	var fs flights
	const followers = 4
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int

	var wg sync.WaitGroup
	results := make([][]byte, followers+1)
	leaderDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(leaderDone)
		b, shared, err := fs.Do(context.Background(), "k", func() ([]byte, error) {
			runs++
			close(started)
			<-release
			return []byte("answer"), nil
		})
		if err != nil || shared {
			t.Errorf("leader: shared=%v err=%v", shared, err)
		}
		results[0] = b
	}()
	<-started
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, shared, err := fs.Do(context.Background(), "k", func() ([]byte, error) {
				t.Error("follower ran fn")
				return nil, nil
			})
			if err != nil || !shared {
				t.Errorf("follower: shared=%v err=%v", shared, err)
			}
			results[i] = b
		}()
	}
	// Followers must be registered before the leader finishes; poll the
	// shared counter rather than sleeping.
	for fs.Shared() < followers {
		select {
		case <-leaderDone:
			t.Fatal("leader finished before the followers joined")
		default:
			runtime.Gosched()
		}
	}
	close(release)
	wg.Wait()
	if runs != 1 {
		t.Fatalf("fn ran %d times", runs)
	}
	for i, b := range results {
		if string(b) != "answer" {
			t.Fatalf("caller %d got %q", i, b)
		}
	}
	if fs.Shared() != followers {
		t.Fatalf("Shared() = %d, want %d", fs.Shared(), followers)
	}
}

func TestFlightsLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	var fs flights
	started := make(chan struct{})
	release := make(chan struct{})
	canceled := fmt.Errorf("wrapped: %w", nova.ErrCanceled)

	go func() {
		fs.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return nil, canceled
		})
	}()
	<-started

	got := make(chan error, 1)
	go func() {
		b, _, err := fs.Do(context.Background(), "k", func() ([]byte, error) {
			// The follower takes over after the leader's cancellation.
			return []byte("recovered"), nil
		})
		if string(b) != "recovered" {
			got <- fmt.Errorf("follower got %q, err %v", b, err)
			return
		}
		got <- err
	}()
	// Ensure the follower joined the doomed flight before releasing it.
	for fs.Shared() < 1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-got; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
}

func TestFlightsFollowerContextCancellation(t *testing.T) {
	var fs flights
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		fs.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := fs.Do(ctx, "k", func() ([]byte, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dead follower waited anyway: %v", err)
	}
}
