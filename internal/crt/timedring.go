package crt

import "ftpn/internal/des"

// Timestamped transport for the concurrent runtime: the same SPSC ring
// the sharded simulation kernel uses for cross-shard token transfer,
// instantiated at the Token payload type. The live runtime and the
// simulation share one transport implementation so conformance tests
// (and bugs found by either side) cover both.

// Stamped is a token with its delivery timestamp.
type Stamped = des.Stamped[Token]

// TimedQueue is the transport contract: bounded, FIFO, TryPush/TryPop.
type TimedQueue = des.TimedQueue[Token]

// TimedRing is the lock-free single-producer single-consumer variant.
type TimedRing = des.TimedRing[Token]

// LockedTimedRing is the mutex-guarded variant for callers without the
// SPSC discipline.
type LockedTimedRing = des.LockedTimedRing[Token]

// NewTimedRing returns an SPSC token ring; capacity rounds up to a
// power of two.
func NewTimedRing(capacity int) *TimedRing { return des.NewTimedRing[Token](capacity) }

// NewLockedTimedRing returns the locked variant.
func NewLockedTimedRing(capacity int) *LockedTimedRing {
	return des.NewLockedTimedRing[Token](capacity)
}
