package cache

import "sync"

// Entry-array recycling: sweep drivers build and discard thousands of
// machines with identically sized caches, so the tag arrays — the bulk
// of a machine's steady allocations — are pooled by capacity. A recycled
// array is cleared before reuse, making it indistinguishable from a
// fresh one (simulation output stays byte-identical).
var entryPools sync.Map // capacity -> *sync.Pool of *[]way

func getLines(n int) []way {
	if p, ok := entryPools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			s := *(v.(*[]way))
			clear(s)
			return s
		}
	}
	return make([]way, n)
}

func putLines(s []way) {
	if len(s) == 0 {
		return
	}
	p, _ := entryPools.LoadOrStore(len(s), new(sync.Pool))
	p.(*sync.Pool).Put(&s)
}
