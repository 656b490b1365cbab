// Package fnv1a is the FNV-1a-64 word fold behind the repository's
// structural digests: pinball identities, divergence-checkpoint and
// ring-window hashes, and the CFG and slicing-engine cache keys. Each
// step mixes a whole 64-bit word, not a byte, so these digests differ
// from hash/fnv's; code that hashes byte streams uses hash/fnv.
package fnv1a

// Offset is the FNV-1a-64 offset basis every digest starts from; Prime
// is the FNV-64 prime.
const (
	Offset uint64 = 14695981039346656037
	Prime  uint64 = 1099511628211
)

// Fold mixes the word v into the running digest h. It runs on every
// replayed instruction, so it must stay small enough to inline.
func Fold(h, v uint64) uint64 { return (h ^ v) * Prime }
