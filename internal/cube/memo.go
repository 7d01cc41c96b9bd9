package cube

import "nova/internal/lru"

// The tautology memo caches unate-recursion verdicts for the whole
// process. A key is the canonical serialized content of a cover (see
// coverKey). Two layouts with the same word count can serialize
// different covers to the same bytes, so each entry also records the id
// of the layout it answers (see layoutFor), and a probe from another
// layout misses. The id rides in the entry rather than in the key: keys
// are whole words, and one more byte would move most of them into the
// next allocation size class, which cost several MiB of peak RSS on the
// benchmark workloads.
//
// Keys are content-exact within a layout, so a hit can never be wrong;
// entries stay valid forever, which is why every Structure and every
// arena shares the one memo, and concurrent encodes probe it at once.
// The memo is an LRU bounded at tautologyMemoEntries entries in total,
// over every layout, so long EncodeAll sweeps and long-running servers
// reach a steady state instead of growing with each new layout.

// tautologyMemoEntries bounds the tautology memo: about 60 MiB at 48-byte
// keys, and above the largest working set the benchmark workloads build
// (about 3×10^5 verdicts), so none of them evicts.
const tautologyMemoEntries = 1 << 19

// memoVerdict is one tautology memo entry.
type memoVerdict struct {
	layout uint32 // id of the layout whose cover the verdict answers
	taut   bool
}

var tautologyMemo = lru.New[memoVerdict](tautologyMemoEntries, nil)
