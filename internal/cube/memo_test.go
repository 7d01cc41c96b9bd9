package cube

import (
	"math/rand"
	"testing"

	"nova/internal/lru"
)

// freshMemo points the tautology memo at a new, empty LRU of the given
// bound for the rest of the test.
func freshMemo(t *testing.T, bound int64) *lru.Cache[memoVerdict] {
	saved := tautologyMemo
	tautologyMemo = lru.New[memoVerdict](bound, nil)
	t.Cleanup(func() { tautologyMemo = saved })
	return tautologyMemo
}

// TestTautologyMemoSharedAcrossArenas checks the end-to-end wiring: two
// arenas over structures of the same layout share verdicts through the
// memo.
func TestTautologyMemoSharedAcrossArenas(t *testing.T) {
	s := NewStructure(2, 2, 2)
	f := NewCover(s)
	// x + x' over the first variable, padded to memoMinCubes cubes.
	f.Add(parse(s, "01", "11", "11"))
	f.Add(parse(s, "10", "11", "11"))
	f.Add(parse(s, "01", "01", "11"))
	f.Add(parse(s, "10", "10", "11"))

	a1 := NewArena(s)
	if !f.TautologyWith(a1) {
		t.Fatal("cover is a tautology")
	}
	if a1.stat.TautMemoLookups == 0 {
		t.Fatal("large cover did not probe the memo")
	}

	a2 := NewArena(s)
	before := a2.stat.TautMemoHits
	if !f.TautologyWith(a2) {
		t.Fatal("cover is a tautology (second arena)")
	}
	if a2.stat.TautMemoHits == before {
		t.Fatal("second arena missed the shared layout memo")
	}
}

// TestTautMemoLRUBound checks the cap: after far more covers of one
// layout than the memo's bound, the memo holds at most the bound, and
// the verdict of the cover tested last is still resident, so a fresh
// arena's probe of that cover hits with the same answer.
func TestTautMemoLRUBound(t *testing.T) {
	const bound = 64 // 4 per shard
	memo := freshMemo(t, bound)
	rng := rand.New(rand.NewSource(2))
	s := NewStructure(2, 2, 2, 2, 2, 2, 2, 2)
	probed := 0
	for k := 0; k < 2000; k++ {
		f := NewCover(s)
		for j := 0; j < 8; j++ {
			c := s.FullCube()
			for v := 0; v < 8; v++ {
				if p := rng.Intn(3); p < 2 {
					s.Clear(c, v, p)
				}
			}
			f.Add(c)
		}
		a := NewArena(s)
		got := f.TautologyWith(a)
		if n := memo.Stats().Entries; n > bound {
			t.Fatalf("memo holds %d entries after %d covers, bound %d", n, k+1, bound)
		}
		if a.stat.TautMemoLookups == 0 {
			continue // the cover never reached the memo
		}
		// The first probe is the cover's own, and its verdict is stored
		// (or refreshed) last, so it is the freshest entry of its shard.
		probed++
		b := NewArena(s)
		if f.TautologyWith(b) != got || b.stat.TautMemoLookups != 1 || b.stat.TautMemoHits != 1 {
			t.Fatalf("cover %d: freshest verdict evicted or wrong: %+v", k, b.stat)
		}
	}
	if st := memo.Stats(); probed < 100 || st.Evictions == 0 {
		t.Fatalf("%d covers probed the memo, stats %+v: the bound was never exercised", probed, st)
	}
}

// TestTautologyMemoBoundIsProcessWide fills the memo through random
// covers of 24 layouts and checks that the entries of all of them
// together stay within the one bound.
func TestTautologyMemoBoundIsProcessWide(t *testing.T) {
	const bound = 128
	memo := freshMemo(t, bound)
	rng := rand.New(rand.NewSource(1))
	probed := 0
	for vars := 3; vars < 3+24; vars++ {
		sizes := make([]int, vars)
		for i := range sizes {
			sizes[i] = 2
		}
		s := NewStructure(sizes...)
		a := NewArena(s)
		for k := 0; k < 100; k++ {
			f := NewCover(s)
			for j := 0; j < 6; j++ {
				c := s.FullCube()
				for v := 0; v < vars; v++ {
					if p := rng.Intn(3); p < 2 {
						s.Clear(c, v, p)
					}
				}
				f.Add(c)
			}
			f.TautologyWith(a)
		}
		if a.stat.TautMemoLookups > 0 {
			probed++
		}
		if n := memo.Stats().Entries; n > bound {
			t.Fatalf("after %d layouts the memo holds %d entries, bound %d", vars-2, n, bound)
		}
	}
	if probed < 20 {
		t.Fatalf("only %d layouts probed the memo", probed)
	}
	if st := memo.Stats(); st.Evictions == 0 {
		t.Fatalf("the covers never filled the memo: %+v", st)
	}
}

// TestTautologyMemoKeysLayouts: layouts (2,2,2) and (3,3) both fit one
// word, so the same four words are a cover of each, with one memo key.
// Under (2,2,2) they leave x0=x1=1, x2=0 uncovered; under (3,3) they
// cover every minterm. The layout id in the entry keeps either verdict
// from answering the other, in either order.
func TestTautologyMemoKeysLayouts(t *testing.T) {
	sa := NewStructure(2, 2, 2)
	fa := NewCover(sa)
	fa.Add(parse(sa, "10", "10", "10"))
	fa.Add(parse(sa, "01", "10", "10"))
	fa.Add(parse(sa, "10", "01", "10"))
	fa.Add(parse(sa, "11", "11", "01"))
	sb := NewStructure(3, 3)
	fb := NewCover(sb)
	for _, c := range fa.Cubes {
		fb.Add(c.Copy())
	}
	check := func(name string, f *Cover, want bool) {
		t.Helper()
		a := NewArena(f.S)
		if got := f.TautologyWith(a); got != want {
			t.Fatalf("%s: tautology = %v, want %v", name, got, want)
		}
		if a.stat.TautMemoLookups == 0 || a.stat.TautMemoHits != 0 {
			t.Fatalf("%s: want a memo probe that misses, got %+v", name, a.stat)
		}
	}
	freshMemo(t, 1<<10)
	check("(2,2,2) first", fa, false)
	check("(3,3) second", fb, true)
	freshMemo(t, 1<<10)
	check("(3,3) first", fb, true)
	check("(2,2,2) second", fa, false)
}
