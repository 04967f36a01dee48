package coma

import (
	"math/bits"

	"repro/internal/addrspace"
)

// lineTable is the protocol's global directory: an open-addressed hash
// table from line to lineInfo, purpose-built for the bus-snoop hot path.
// Power-of-two capacity with linear probing keeps every lookup a
// multiply, a shift and a short sequential scan over slots that hold the
// key next to its info; deletion backward-shifts the probe chain closed,
// so there are no tombstones and probe lengths never degrade over a run.
// The table starts small and doubles at 75% load, so it is sized by the
// lines actually resident — at low memory pressure far fewer than the
// attraction memories could hold. Residency is capped by that capacity,
// so a run stops growing once its working set is resident and the steady
// state never allocates.
//
// An empty slot is one whose info.copies == 0: the protocol never stores
// an entry without copies (a line with no copies anywhere is removed from
// the directory), which put enforces.
type lineTable struct {
	slots   []lineSlot
	n       int
	maxLoad int
	shift   uint // 64 - log2(len(slots)), for Fibonacci hashing
}

type lineSlot struct {
	key  addrspace.Line
	info lineInfo
}

// minLineSlots is a new table's capacity.
const minLineSlots = 16

func newLineTable() *lineTable {
	t := &lineTable{}
	t.alloc(minLineSlots)
	return t
}

func (t *lineTable) alloc(slots int) {
	t.slots = make([]lineSlot, slots)
	t.maxLoad = slots - slots/4 // grow at 75% occupancy
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// slot is the home slot for l: Fibonacci hashing spreads the sequential
// line numbers the address-space allocator hands out across the table.
func (t *lineTable) slot(l addrspace.Line) uint64 {
	return (uint64(l) * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *lineTable) len() int { return t.n }

// get returns the line's info; a missing line yields the zero lineInfo,
// matching the map semantics the table replaces.
func (t *lineTable) get(l addrspace.Line) (lineInfo, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.slot(l); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.info.copies == 0 {
			return lineInfo{}, false
		}
		if s.key == l {
			return s.info, true
		}
	}
}

// put inserts or updates the line's info. info.copies must be non-zero —
// that is the table's empty-slot sentinel, and the protocol invariably
// removes lines that lose their last copy.
func (t *lineTable) put(l addrspace.Line, info lineInfo) {
	if info.copies == 0 {
		panic("coma: directory entry without copies")
	}
	if t.n >= t.maxLoad {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.slot(l)
	for t.slots[i].info.copies != 0 {
		if t.slots[i].key == l {
			t.slots[i].info = info
			return
		}
		i = (i + 1) & mask
	}
	t.slots[i] = lineSlot{key: l, info: info}
	t.n++
}

// del removes the line, if present, by backward-shifting the rest of the
// probe chain into the hole so no tombstone is left behind.
func (t *lineTable) del(l addrspace.Line) {
	mask := uint64(len(t.slots) - 1)
	i := t.slot(l)
	for {
		if t.slots[i].info.copies == 0 {
			return
		}
		if t.slots[i].key == l {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.slots[j].info.copies = 0
		k := (j + 1) & mask
		for {
			if t.slots[k].info.copies == 0 {
				t.n--
				return
			}
			// An entry may fill the hole only if its home slot does not
			// lie between the hole and it (cyclic comparison): moving it
			// back keeps it reachable from its home.
			if (k-t.slot(t.slots[k].key))&mask >= (k-j)&mask {
				break
			}
			k = (k + 1) & mask
		}
		t.slots[j] = t.slots[k]
		j = k
	}
}

// forEach visits every entry in table order (order is not meaningful;
// callers must be order-independent).
func (t *lineTable) forEach(fn func(addrspace.Line, lineInfo)) {
	for _, s := range t.slots {
		if s.info.copies != 0 {
			fn(s.key, s.info)
		}
	}
}

func (t *lineTable) grow() {
	old := t.slots
	t.alloc(2 * len(old))
	t.n = 0
	for _, s := range old {
		if s.info.copies != 0 {
			t.put(s.key, s.info)
		}
	}
}
