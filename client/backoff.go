package client

import (
	"sync"
	"time"

	"nova/internal/sched"
)

// backoff computes capped exponential retry delays with deterministic
// jitter: attempt n gets a delay drawn uniformly from [d/2, d) where
// d = min(cap, base<<n). The jitter values come from a seeded
// splitmix64 stream advanced per draw, so one seed yields one exact
// delay sequence (reproducible tests, replayable incidents) while
// distinct seeds de-synchronize a fleet of clients retrying against
// the same struggling server.
type backoff struct {
	base, cap time.Duration

	mu    sync.Mutex
	state uint64
}

func newBackoff(base, cap time.Duration, seed uint64) *backoff {
	state, _ := sched.SplitMix64(seed)
	return &backoff{base: base, cap: cap, state: state}
}

// delay returns the jittered sleep before retry number attempt
// (0-based: the sleep between the first failure and the second try).
func (b *backoff) delay(attempt int) time.Duration {
	d := b.cap
	// base<<attempt, without shifting into overflow.
	if attempt < 62 {
		if shifted := b.base << attempt; shifted > 0 && shifted < b.cap {
			d = shifted
		}
	}
	b.mu.Lock()
	var v uint64
	v, b.state = sched.SplitMix64(b.state)
	b.mu.Unlock()
	u := float64(v>>11) / (1 << 53) // uniform in [0, 1)
	half := d / 2
	return half + time.Duration(u*float64(half))
}
