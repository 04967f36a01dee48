package cache

import (
	"fmt"

	"repro/internal/addrspace"
)

// State is an opaque per-line state byte. Zero is reserved for invalid.
type State uint8

// Invalid marks an empty way.
const Invalid State = 0

// Entry describes one way of one set.
type Entry struct {
	Line  addrspace.Line
	State State
	lru   uint64
}

// way is the stored form of an Entry: 16 bytes, so a 4-way set fits one
// 64-byte host cache line. meta packs the state into its top 8 bits and
// the LRU stamp into the low 56 (2^56 accesses to one cache would take
// years of simulation, so the stamp never wraps). An empty way is all
// zero: every path that invalidates a way clears it whole.
type way struct {
	line addrspace.Line
	meta uint64
}

const (
	stateShift = 56
	lruMask    = 1<<stateShift - 1
)

func (w *way) state() State { return State(w.meta >> stateShift) }
func (w *way) lru() uint64  { return w.meta & lruMask }

func (w *way) entry() Entry {
	return Entry{Line: w.line, State: w.state(), lru: w.lru()}
}

func packWay(l addrspace.Line, s State, lru uint64) way {
	return way{line: l, meta: uint64(s)<<stateShift | lru&lruMask}
}

// Cache is a set-associative tag array with true-LRU replacement within a
// set and an optional state-priority override for victim choice.
type Cache struct {
	name  string
	sets  int
	div   addrspace.Div // precomputed set-index divisor (fastmod)
	ways  int
	lines []way
	clock uint64
	// victimRank ranks states for eviction: lower rank is evicted first.
	// Nil means pure LRU. Invalid ways are always preferred regardless.
	victimRank func(State) int
}

// Config parameterizes New.
type Config struct {
	Name string
	Sets int
	Ways int
	// VictimRank optionally biases victim choice by state; lower rank is
	// evicted first, LRU breaking ties. Nil selects pure LRU.
	VictimRank func(State) int
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %dx%d", cfg.Name, cfg.Sets, cfg.Ways))
	}
	return &Cache{
		name:       cfg.Name,
		sets:       cfg.Sets,
		div:        addrspace.NewDiv(cfg.Sets),
		ways:       cfg.Ways,
		lines:      getLines(cfg.Sets * cfg.Ways),
		victimRank: cfg.VictimRank,
	}
}

// Release returns the tag array to the reuse pool. The cache must not be
// used afterwards.
func (c *Cache) Release() {
	if c.lines != nil {
		putLines(c.lines)
		c.lines = nil
	}
}

// Geometry helpers.
func (c *Cache) Sets() int      { return c.sets }
func (c *Cache) Ways() int      { return c.ways }
func (c *Cache) Capacity() int  { return c.sets * c.ways }
func (c *Cache) Name() string   { return c.name }
func (c *Cache) SizeBytes() int { return c.sets * c.ways * addrspace.LineSize }

func (c *Cache) set(l addrspace.Line) []way {
	s := l.SetIndexDiv(c.div)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *Cache) find(l addrspace.Line) *way {
	set := c.set(l)
	// Tag compare first: for non-matching ways (the common case) it fails
	// in one comparison, where testing the state first costs two. The
	// state check still guards the hit — an empty way has line zero, so
	// it can only tag-match line 0.
	for i := range set {
		if set[i].line == l && set[i].meta != 0 {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the line's state and whether it is present (non-invalid).
// It does not update LRU; use Touch for accesses.
func (c *Cache) Lookup(l addrspace.Line) (State, bool) {
	if w := c.find(l); w != nil {
		return w.state(), true
	}
	return Invalid, false
}

// Touch marks an access to the line for LRU purposes and returns its
// state. ok is false if the line is absent.
func (c *Cache) Touch(l addrspace.Line) (State, bool) {
	w := c.find(l)
	if w == nil {
		return Invalid, false
	}
	c.clock++
	st := w.state()
	*w = packWay(l, st, c.clock)
	return st, true
}

// SetState updates the state of a present line. It panics if the line is
// absent — protocol code must only transition resident lines.
func (c *Cache) SetState(l addrspace.Line, s State) {
	if s == Invalid {
		c.Invalidate(l)
		return
	}
	w := c.find(l)
	if w == nil {
		panic(fmt.Sprintf("cache %s: SetState on absent line %#x", c.name, uint64(l)))
	}
	*w = packWay(l, s, w.lru())
}

// Invalidate removes the line if present, reporting whether it was.
func (c *Cache) Invalidate(l addrspace.Line) bool {
	if w := c.find(l); w != nil {
		*w = way{}
		return true
	}
	return false
}

// Insert places the line with the given state, evicting if necessary.
// If the line is already present its state is overwritten and LRU updated.
// The returned victim is valid only when evicted is true.
func (c *Cache) Insert(l addrspace.Line, s State) (victim Entry, evicted bool) {
	if s == Invalid {
		panic(fmt.Sprintf("cache %s: inserting invalid state", c.name))
	}
	c.clock++
	set := c.set(l)
	slot, hit := c.scan(set, l)
	if !hit && set[slot].meta != 0 {
		victim, evicted = set[slot].entry(), true
	}
	set[slot] = packWay(l, s, c.clock)
	return victim, evicted
}

// scan walks l's set once. hit reports that l is resident, at slot;
// otherwise slot is the way to fill: the first empty way if any, else the
// lowest (victimRank, lru) way.
func (c *Cache) scan(set []way, l addrspace.Line) (slot int, hit bool) {
	best, free := -1, -1
	for i := range set {
		w := &set[i]
		switch {
		case w.meta == 0:
			if free < 0 {
				free = i
			}
		case w.line == l:
			return i, true
		case best < 0 || c.victimLess(w, &set[best]):
			best = i
		}
	}
	if free >= 0 {
		return free, false
	}
	return best, false
}

func (c *Cache) victimLess(a, b *way) bool {
	if c.victimRank != nil {
		ra, rb := c.victimRank(a.state()), c.victimRank(b.state())
		if ra != rb {
			return ra < rb
		}
	}
	return a.lru() < b.lru()
}

// PeekVictim reports which entry Insert would evict for a line mapping to
// l's set, without modifying anything. evicted is false if a free way
// exists (or the line is already resident).
func (c *Cache) PeekVictim(l addrspace.Line) (victim Entry, evicted bool) {
	set := c.set(l)
	slot, hit := c.scan(set, l)
	if hit || set[slot].meta == 0 {
		return Entry{}, false
	}
	return set[slot].entry(), true
}

// HasState reports whether l's set contains at least one way whose state
// satisfies pred (Invalid ways are passed to pred as Invalid). Used by the
// accept-based replacement protocol to probe receiver candidates.
func (c *Cache) HasState(l addrspace.Line, pred func(State) bool) bool {
	set := c.set(l)
	for i := range set {
		if pred(set[i].state()) {
			return true
		}
	}
	return false
}

// VictimByState removes and returns the LRU entry in l's set whose state
// satisfies pred. ok is false if no way qualifies.
func (c *Cache) VictimByState(l addrspace.Line, pred func(State) bool) (Entry, bool) {
	set := c.set(l)
	best := -1
	for i := range set {
		if set[i].meta == 0 || !pred(set[i].state()) {
			continue
		}
		if best == -1 || set[i].lru() < set[best].lru() {
			best = i
		}
	}
	if best == -1 {
		return Entry{}, false
	}
	v := set[best].entry()
	set[best] = way{}
	return v, true
}

// ForEach visits every resident entry. Iteration order is unspecified.
func (c *Cache) ForEach(fn func(Entry)) {
	for i := range c.lines {
		if c.lines[i].meta != 0 {
			fn(c.lines[i].entry())
		}
	}
}

// CountState returns the number of resident lines for which pred is true.
func (c *Cache) CountState(pred func(State) bool) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].meta != 0 && pred(c.lines[i].state()) {
			n++
		}
	}
	return n
}
