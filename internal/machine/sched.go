package machine

import "math/bits"

// procTree is a tournament tree over processor ids that picks the next
// processor to step: the runnable one with the smallest (local clock,
// processor id).
//
// Determinism: the order is the lexicographic (clock, id) pair — a strict
// total order, since ids are unique — so peek returns exactly the
// processor an O(P) scan for the lowest id among the minimum clocks would
// pick, and the simulation schedule, and therefore every output, is
// fixed by the trace alone.
//
// A key packs the pair into one integer, clock<<shift | id, so comparing
// keys compares (clock, id) and a match is a single min. Leaf id sits at
// index n+id (n is P rounded up to a power of two, shift its log2) and
// every internal node i holds the smaller key of its children 2i and
// 2i+1, so the root (index 1) holds the overall minimum. Blocked,
// finished and padding leaves carry notQueued, which loses to every real
// key. A key change replays the log2(n) matches on one leaf's path to
// the root: no swaps and no position index.
//
// A clock must stay below maxClock (2^57 ns, years of simulated time, at
// 128 processors); the run loop checks every stepped clock against it.
type procTree struct {
	procs    []*proc
	n        int
	shift    uint
	maxClock uint64 // clocks at or above this do not fit a key
	key      []uint64
}

// notQueued is the key of a processor that is not runnable.
const notQueued = ^uint64(0)

func (h *procTree) init(procs []*proc) {
	h.procs = procs
	h.n = 1
	for h.n < len(procs) {
		h.n *= 2
	}
	h.shift = uint(bits.TrailingZeros(uint(h.n)))
	h.maxClock = notQueued >> h.shift
	h.key = make([]uint64, 2*h.n)
	for i := range h.key {
		h.key[i] = notQueued
	}
}

// set stores id's key and replays the matches on its path to the root.
func (h *procTree) set(id int32, k uint64) {
	i := h.n + int(id)
	h.key[i] = k
	for i > 1 {
		k = min(k, h.key[i^1])
		i >>= 1
		h.key[i] = k
	}
}

// fix enqueues processor id, or refreshes its key from its clock if it is
// already enqueued. It is idempotent, so a wake site that re-enqueues the
// stepping processor (barrier self-release) composes with the run loop's
// own fix.
func (h *procTree) fix(id int32) {
	h.set(id, uint64(h.procs[id].t)<<h.shift|uint64(id))
}

// remove dequeues processor id (it blocked or finished).
func (h *procTree) remove(id int32) { h.set(id, notQueued) }

// peek returns the runnable processor with the smallest (clock, id)
// without removing it; ok is false when no processor is runnable.
func (h *procTree) peek() (int32, bool) {
	k := h.key[1]
	return int32(k & (1<<h.shift - 1)), k != notQueued
}
