package numa

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/coma"
)

// lineState is the directory's view of one line. The sharer bitmask is as
// wide as the machine's 64-node limit (machine.Params.Validate).
type lineState struct {
	home    int16
	dirty   int16 // node whose SLC holds the line dirty; -1 if clean
	sharers uint64
}

// Directory is the home-based coherence directory; it implements
// machine.MemSystem.
type Directory struct {
	nodes     int
	lines     map[addrspace.Line]*lineState
	purge     func(node int, l addrspace.Line, evict bool)
	downgrade func(node int, l addrspace.Line)
	stats     coma.Stats
	// txns is the scratch transaction buffer handed out via Effect.Txns,
	// under the same contract as the COMA protocol's: valid until the
	// next Read/Write/WriteBack call on this directory.
	txns []coma.Txn
}

// New builds an empty directory for the given node count. The purge and
// downgrade callbacks keep the machine's private caches coherent and are
// supplied by machine.NewWithMem.
func New(nodes int,
	purge func(node int, l addrspace.Line, evict bool),
	downgrade func(node int, l addrspace.Line)) *Directory {
	if purge == nil {
		purge = func(int, addrspace.Line, bool) {}
	}
	if downgrade == nil {
		downgrade = func(int, addrspace.Line) {}
	}
	return &Directory{
		nodes:     nodes,
		lines:     make(map[addrspace.Line]*lineState),
		purge:     purge,
		downgrade: downgrade,
	}
}

func (d *Directory) line(node int, l addrspace.Line) (*lineState, bool) {
	st, ok := d.lines[l]
	if !ok {
		// First touch anywhere: the page's frames are homed here.
		st = &lineState{home: int16(node), dirty: -1}
		d.lines[l] = st
		d.stats.ColdAllocs++
	}
	return st, ok
}

// Home reports the line's home node (-1 if untouched).
func (d *Directory) Home(l addrspace.Line) int {
	if st, ok := d.lines[l]; ok {
		return int(st.home)
	}
	return -1
}

// Read services an SLC read miss by the given node.
func (d *Directory) Read(node int, l addrspace.Line) coma.Effect {
	d.stats.Reads++
	st, existed := d.line(node, l)
	var eff coma.Effect
	if !existed {
		eff.Cold = true
		eff.Hit = true // local memory access; the data is homed here
		st.sharers = 1 << uint(node)
		return eff
	}
	// A dirty remote copy must supply (and implicitly clean) the data.
	if st.dirty >= 0 && int(st.dirty) != node {
		supplier := int(st.dirty)
		d.downgrade(supplier, l)
		st.dirty = -1
		st.sharers |= 1 << uint(node)
		d.stats.ReadMisses++
		eff.Txns = d.txn1(coma.Txn{Class: coma.TxnRead, Data: true, Remote: supplier})
		eff.NoLocalFill = int(st.home) != node
		d.record(eff.Txns)
		return eff
	}
	st.sharers |= 1 << uint(node)
	if int(st.home) == node {
		eff.Hit = true // local memory
		return eff
	}
	// Clean remote data: fetch from home, do not install locally.
	d.stats.ReadMisses++
	eff.Txns = d.txn1(coma.Txn{Class: coma.TxnRead, Data: true, Remote: int(st.home)})
	eff.NoLocalFill = true
	d.record(eff.Txns)
	return eff
}

// txn1 fills the scratch buffer with a single transaction; the returned
// slice is valid until the next access on the directory.
func (d *Directory) txn1(t coma.Txn) []coma.Txn {
	d.txns = append(d.txns[:0], t)
	return d.txns
}

// Write services an SLC write miss or upgrade by the given node.
func (d *Directory) Write(node int, l addrspace.Line) coma.Effect {
	d.stats.Writes++
	st, existed := d.line(node, l)
	var eff coma.Effect
	if !existed {
		eff.Cold = true
		eff.Hit = true
		eff.Writable = true
		st.dirty = int16(node)
		st.sharers = 1 << uint(node)
		return eff
	}
	// Invalidate every other copy.
	hadOthers := false
	for n := 0; n < d.nodes; n++ {
		if n == node {
			continue
		}
		if st.sharers&(1<<uint(n)) != 0 {
			d.purge(n, l, false)
			hadOthers = true
		}
	}
	supplier := int(st.home)
	if st.dirty >= 0 && int(st.dirty) != node {
		supplier = int(st.dirty)
	}
	alreadyOwned := st.dirty == int16(node)
	wasSharer := st.sharers&(1<<uint(node)) != 0
	st.dirty = int16(node)
	st.sharers = 1 << uint(node)
	eff.Writable = true // NUMA writes always gain exclusivity
	switch {
	case alreadyOwned:
		eff.Hit = true
	case wasSharer && !hadOthers && int(st.home) == node:
		// Sole local copy: upgrade completes in local memory.
		eff.Hit = true
	case wasSharer:
		// Upgrade: invalidation broadcast, no data.
		d.stats.Upgrades++
		eff.Txns = d.txn1(coma.Txn{Class: coma.TxnWrite, Data: false, Remote: -1})
		d.record(eff.Txns)
	default:
		// Fetch-exclusive from home or dirty holder.
		d.stats.WriteMisses++
		eff.Txns = d.txn1(coma.Txn{Class: coma.TxnWrite, Data: true, Remote: supplier})
		eff.NoLocalFill = int(st.home) != node
		d.record(eff.Txns)
	}
	return eff
}

// WriteBack retires a dirty SLC line to the line's home memory.
func (d *Directory) WriteBack(node int, l addrspace.Line) coma.Effect {
	st, ok := d.lines[l]
	if !ok {
		return coma.Effect{Hit: true}
	}
	if st.dirty == int16(node) {
		st.dirty = -1
	}
	if int(st.home) == node {
		return coma.Effect{Hit: true}
	}
	eff := coma.Effect{
		Txns:        d.txn1(coma.Txn{Class: coma.TxnWrite, Data: true, Remote: int(st.home)}),
		NoLocalFill: true,
	}
	d.record(eff.Txns)
	return eff
}

func (d *Directory) record(txns []coma.Txn) {
	for _, t := range txns {
		d.stats.TxnCount[t.Class]++
		if t.Data {
			d.stats.TxnData[t.Class]++
		}
	}
}

// CheckInvariants verifies directory consistency: every tracked line has
// a valid home, at most one dirty holder, and a dirty holder is also a
// sharer. Fuzz tests call it after random runs.
func (d *Directory) CheckInvariants() error {
	for l, st := range d.lines {
		if st.home < 0 || int(st.home) >= d.nodes {
			return fmt.Errorf("numa: line %#x: bad home %d", uint64(l), st.home)
		}
		if st.dirty >= 0 {
			if int(st.dirty) >= d.nodes {
				return fmt.Errorf("numa: line %#x: bad dirty holder %d", uint64(l), st.dirty)
			}
			if st.sharers&(1<<uint(st.dirty)) == 0 {
				return fmt.Errorf("numa: line %#x: dirty holder %d is not a sharer", uint64(l), st.dirty)
			}
			if st.sharers&(st.sharers-1) != 0 {
				return fmt.Errorf("numa: line %#x: dirty with multiple sharers %b", uint64(l), st.sharers)
			}
		}
	}
	return nil
}

// Stats returns the counter snapshot.
func (d *Directory) Stats() coma.Stats { return d.stats }

// ResetStats clears the counters.
func (d *Directory) ResetStats() { d.stats = coma.Stats{} }
