package cube

// Arena is a scratch allocator for the unate-recursion hot path: a free
// list of cubes and cover containers tied to one Structure layout. The
// recursion of Tautology / CoversCube / Complement allocates one cofactor
// cover per node; with an arena those buffers are recycled instead of
// handed to the garbage collector, which removes the dominant allocation
// cost of the ESPRESSO passes.
//
// An Arena is NOT safe for concurrent use. Obtain one with GetArena and
// return it with PutArena; the backing sync.Pool hands each worker its own
// arena, which is what keeps parallel encoding race-free.
type Arena struct {
	s      *Structure
	cubes  []Cube
	covers []*Cover
	ints   []int // scratch of counts; see counts

	// stat accumulates hot-loop telemetry in plain ints — the arena is
	// single-owner, so no atomics are needed here. Callers that trace
	// snapshot Stats() before and after a phase and flush the delta into
	// an obs.Metrics; untraced runs pay only the increments.
	stat   ArenaStats
	reused bool // true when GetArena served this arena from the pool
}

// ArenaStats counts arena and tautology activity. Values are cumulative
// over the arena's lifetime (across pool reuses); use Sub to form
// per-phase deltas.
type ArenaStats struct {
	TautCalls   int64 // tautology / covering queries answered
	CubesAlloc  int64 // NewCube calls that hit make()
	CubesReused int64 // NewCube calls served from the free list
}

// Sub returns s - o, the activity between two snapshots.
func (s ArenaStats) Sub(o ArenaStats) ArenaStats {
	return ArenaStats{
		TautCalls:   s.TautCalls - o.TautCalls,
		CubesAlloc:  s.CubesAlloc - o.CubesAlloc,
		CubesReused: s.CubesReused - o.CubesReused,
	}
}

// Stats returns the arena's cumulative activity counters.
func (a *Arena) Stats() ArenaStats { return a.stat }

// Reused reports whether this arena came out of the pool warm (with its
// free lists from a previous owner) rather than freshly built.
func (a *Arena) Reused() bool { return a.reused }

// NewArena returns an empty arena for structure s.
func NewArena(s *Structure) *Arena { return &Arena{s: s} }

// GetArena checks an arena for s's layout out of the shared pool. The
// caller has exclusive use of it until PutArena.
func GetArena(s *Structure) *Arena {
	if v := s.pool.Get(); v != nil {
		a := v.(*Arena)
		a.s = s // equal layout: masks and widths are interchangeable
		a.reused = true
		return a
	}
	return NewArena(s)
}

// PutArena returns an arena to its layout's pool.
func PutArena(a *Arena) {
	if a == nil {
		return
	}
	a.s.pool.Put(a)
}

// NewCube returns a zeroed cube, recycled when possible.
func (a *Arena) NewCube() Cube {
	if n := len(a.cubes); n > 0 {
		c := a.cubes[n-1]
		a.cubes = a.cubes[:n-1]
		for i := range c {
			c[i] = 0
		}
		a.stat.CubesReused++
		return c
	}
	a.stat.CubesAlloc++
	return make(Cube, a.s.nwords)
}

// CopyCube returns an arena-backed copy of c.
func (a *Arena) CopyCube(c Cube) Cube {
	r := a.NewCube()
	copy(r, c)
	return r
}

// counts returns n zeroed ints of scratch, valid until the next call.
// The split-variable pick and the dominated-row prune use it, and neither
// runs inside the other.
func (a *Arena) counts(n int) []int {
	if cap(a.ints) < n {
		a.ints = make([]int, n)
	}
	a.ints = a.ints[:n]
	clear(a.ints)
	return a.ints
}

// FreeCube recycles c. The caller must not retain references to it.
func (a *Arena) FreeCube(c Cube) {
	if len(c) == a.s.nwords {
		a.cubes = append(a.cubes, c)
	}
}

// NewCover returns an empty cover container over the arena's structure.
func (a *Arena) NewCover() *Cover {
	if n := len(a.covers); n > 0 {
		f := a.covers[n-1]
		a.covers = a.covers[:n-1]
		f.S = a.s
		f.Cubes = f.Cubes[:0]
		return f
	}
	return &Cover{S: a.s}
}

// FreeCover recycles the cover container only; its cubes are left alone
// (for covers whose cubes alias caller-owned data).
func (a *Arena) FreeCover(f *Cover) {
	f.Cubes = f.Cubes[:0]
	a.covers = append(a.covers, f)
}

// Release recycles the cover container and every cube in it. Only covers
// whose cubes were all allocated from this arena (cofactor covers built by
// the recursion) may be released.
func (a *Arena) Release(f *Cover) {
	for _, c := range f.Cubes {
		a.FreeCube(c)
	}
	a.FreeCover(f)
}
