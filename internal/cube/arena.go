package cube

// Arena is a scratch allocator for the unate-recursion hot path: a free
// list of cubes and cover containers tied to one Structure layout. The
// recursion of Tautology / CoversCube / Complement allocates one cofactor
// cover per node; with an arena those buffers are recycled instead of
// handed to the garbage collector, which removes the dominant allocation
// cost of the ESPRESSO passes.
//
// An Arena is NOT safe for concurrent use. Each top-level operation
// makes its own with NewArena and drops it when it returns, so no scratch
// outlives a call and no two workers ever share one.
type Arena struct {
	s      *Structure
	cubes  []Cube
	covers []*Cover
	ints   []int // scratch of counts; see counts

	// stat accumulates hot-loop telemetry in plain ints — the arena is
	// single-owner, so no atomics are needed here. Callers that trace
	// snapshot Stats() before and after a phase and flush the delta into
	// an obs.Metrics; untraced runs pay only the increments.
	stat ArenaStats
}

// ArenaStats counts arena and tautology activity. Values are cumulative
// over the arena's lifetime; use Sub to form per-phase deltas.
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

// NewArena returns an empty arena for structure s.
func NewArena(s *Structure) *Arena { return &Arena{s: s} }

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
