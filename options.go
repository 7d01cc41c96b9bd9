package nova

import (
	"fmt"

	"nova/internal/sched"
)

// algorithms is the closed set of Algorithm values the entry points
// accept. The empty string is also accepted everywhere and resolves to
// Best in withDefaults.
var algorithms = map[Algorithm]bool{
	IExact: true, IHybrid: true, IGreedy: true, IOHybrid: true,
	IOVariant: true, Best: true, Portfolio: true, KISS: true,
	OneHot: true, Random: true,
	MustangP: true, MustangN: true, MustangPT: true, MustangNT: true,
}

// Algorithms returns every accepted Algorithm value in a stable order —
// the set the CLI tools and the server validate request algorithms
// against.
func Algorithms() []Algorithm {
	return []Algorithm{
		IExact, IHybrid, IGreedy, IOHybrid, IOVariant, Best, Portfolio,
		KISS, OneHot, Random, MustangP, MustangN, MustangPT, MustangNT,
	}
}

// maxJoinWidth bounds the tasks of one join — a Random batch's trials or
// a portfolio roster — so that no request can make a run allocate and
// schedule an unbounded batch before any work starts.
const maxJoinWidth = 1 << 16

// Validate checks the Options for values no run could honor: an unknown
// algorithm, an encoding length outside [0, 64], a negative budget or
// worker bound, or a Random batch or portfolio roster of more than
// 1<<16 candidates. Every public entry point (Encode, EncodeContext,
// EncodeAll) calls it once up front and returns the failure wrapped so
// that errors.Is(err, ErrBadOptions) matches; zero values are always
// valid and select the documented defaults.
func (o Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadOptions, fmt.Sprintf(format, args...))
	}
	if o.Algorithm != "" && !algorithms[o.Algorithm] {
		return bad("unknown algorithm %q", o.Algorithm)
	}
	if o.Bits < 0 || o.Bits > 64 {
		return bad("Bits %d outside [0, 64]", o.Bits)
	}
	if o.MaxWork < 0 {
		return bad("MaxWork %d is negative", o.MaxWork)
	}
	if o.RandomTrials < 0 {
		return bad("RandomTrials %d is negative", o.RandomTrials)
	}
	if o.RandomTrials > maxJoinWidth {
		return bad("RandomTrials %d exceeds %d", o.RandomTrials, maxJoinWidth)
	}
	if o.Parallelism < 0 {
		return bad("Parallelism %d is negative", o.Parallelism)
	}
	if o.Portfolio != nil && o.Algorithm != "" && o.Algorithm != Portfolio {
		return bad("Portfolio config set with algorithm %q (want %q or empty)", o.Algorithm, Portfolio)
	}
	if err := o.Portfolio.validate(bad); err != nil {
		return err
	}
	return nil
}

// withDefaults resolves every defaulted zero value to its concrete
// setting in one place: the algorithm and the worker bound. It is the
// single fixup point behind the public entry points — code past it can
// rely on Algorithm being a member of the algorithm set and Parallelism
// being positive. (RandomTrials stays 0 here because its default depends
// on the machine; encodeRandom resolves it.)
func (o Options) withDefaults() Options {
	o.Algorithm = algorithmOrDefault(o.Algorithm, o.Portfolio != nil)
	o.Parallelism = sched.PoolSize(o.Parallelism)
	return o
}

// algorithmOrDefault resolves an empty algorithm: Portfolio when a
// portfolio config is set, else Best. Request.CacheKey resolves it the
// same way, so "" and its default share a cache entry.
func algorithmOrDefault(alg Algorithm, portfolio bool) Algorithm {
	switch {
	case alg != "":
		return alg
	case portfolio:
		return Portfolio
	}
	return Best
}
