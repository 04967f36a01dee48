package coma

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addrspace"
)

// refModel is the map the lineTable replaced; the property tests below
// hold the two implementations against each other under random streams.
type refModel map[addrspace.Line]lineInfo

func randomInfo(rng *rand.Rand, nodes int) lineInfo {
	copies := uint64(rng.Intn(1<<uint(nodes)-1) + 1) // non-zero
	return lineInfo{owner: int16(rng.Intn(nodes)), copies: copies}
}

// checkAgainst verifies the table and the model agree on every key either
// side knows about, and on the total count.
func checkAgainst(t *testing.T, tab *lineTable, ref refModel) {
	t.Helper()
	if tab.len() != len(ref) {
		t.Fatalf("table has %d entries, model %d", tab.len(), len(ref))
	}
	for l, want := range ref {
		got, ok := tab.get(l)
		if !ok || got != want {
			t.Fatalf("line %#x: table (%+v, %v), model %+v", uint64(l), got, ok, want)
		}
	}
	seen := 0
	tab.forEach(func(l addrspace.Line, info lineInfo) {
		want, ok := ref[l]
		if !ok {
			t.Fatalf("table holds line %#x absent from model", uint64(l))
		}
		if info != want {
			t.Fatalf("line %#x: forEach %+v, model %+v", uint64(l), info, want)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("forEach visited %d entries, model has %d", seen, len(ref))
	}
}

// applyOp mutates both the table and the model with the same operation.
func applyOp(tab *lineTable, ref refModel, rng *rand.Rand, l addrspace.Line, nodes int) {
	switch rng.Intn(4) {
	case 0: // delete (also exercises deleting absent keys)
		tab.del(l)
		delete(ref, l)
	default: // insert or update
		info := randomInfo(rng, nodes)
		tab.put(l, info)
		ref[l] = info
	}
}

// TestLineTableVersusMap drives the open-addressed table and a plain map
// through the same random insert/update/delete stream and requires them to
// stay indistinguishable. Every table starts at its small initial size, so
// each regime also drives it through its grows. The key regimes mirror the
// coherence tests: the paper's 87%-capacity pressure (dense table, long
// probe chains, constant churn) and a sparse regime where deletes
// dominate.
func TestLineTableVersusMap(t *testing.T) {
	regimes := []struct {
		name  string
		lines int // key universe size
		ops   int
	}{
		// 4 nodes x 7 sets x 2 ways at 87% pressure, as in
		// TestCoherenceRandomStream.
		{"paper-pressure", 4 * 7 * 2 * 87 / 100, 30000},
		// A universe far above the initial size: multiple grows.
		{"grows", 4096, 20000},
		// Sparse: huge universe, most gets miss and most dels are no-ops.
		{"sparse", 1 << 20, 20000},
	}
	for _, reg := range regimes {
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			const nodes = 4
			rng := rand.New(rand.NewSource(7))
			tab := newLineTable()
			ref := refModel{}
			for i := 0; i < reg.ops; i++ {
				l := addrspace.Line(rng.Intn(reg.lines) + 1)
				applyOp(tab, ref, rng, l, nodes)
				if i%997 == 0 {
					checkAgainst(t, tab, ref)
				}
			}
			checkAgainst(t, tab, ref)
		})
	}
}

// TestLineTableBackwardShift drills the deletion path directly: colliding
// keys (forced through a tiny table) must all remain reachable after any
// one of them is deleted, in every deletion order.
func TestLineTableBackwardShift(t *testing.T) {
	const n = 24
	perms := [][]int{
		{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1},
	}
	for pi, perm := range perms {
		tab := newLineTable() // 24 keys in 16 slots: collisions, then a grow
		ref := refModel{}
		for i := 1; i <= n; i++ {
			info := lineInfo{owner: int16(i % 4), copies: uint64(i)}
			tab.put(addrspace.Line(i), info)
			ref[addrspace.Line(i)] = info
		}
		// Delete in chunks of 4 following the permutation pattern.
		for base := 1; base <= n-4; base += 4 {
			for _, off := range perm {
				l := addrspace.Line(base + off)
				tab.del(l)
				delete(ref, l)
				checkAgainst(t, tab, ref)
			}
		}
		if pi == 0 && tab.len() != len(ref) {
			t.Fatal("count drifted")
		}
	}
}

func TestLineTablePutRejectsEmptySentinel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for copies==0 entry")
		}
	}()
	newLineTable().put(1, lineInfo{owner: 0, copies: 0})
}

// FuzzLineTable feeds arbitrary operation streams to the table and the
// reference map. Each input byte pair encodes (op, key).
func FuzzLineTable(f *testing.F) {
	f.Add([]byte{0x01, 0x81, 0x02, 0x01, 0x41})
	f.Add([]byte{0xff, 0x00, 0x10, 0x90, 0x10, 0x10})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := newLineTable()
		ref := refModel{}
		for i := 0; i+1 < len(data); i += 2 {
			l := addrspace.Line(data[i+1]&0x3f) + 1 // small universe -> collisions
			switch {
			case data[i]&0x80 != 0:
				tab.del(l)
				delete(ref, l)
			default:
				info := lineInfo{owner: int16(data[i] & 3), copies: uint64(data[i]&0x7f) + 1}
				tab.put(l, info)
				ref[l] = info
			}
		}
		if tab.len() != len(ref) {
			t.Fatalf("table %d entries, model %d", tab.len(), len(ref))
		}
		for l, want := range ref {
			if got, ok := tab.get(l); !ok || got != want {
				t.Fatalf("line %#x: table (%+v, %v), model %+v", uint64(l), got, ok, want)
			}
		}
		tab.forEach(func(l addrspace.Line, info lineInfo) {
			if ref[l] != info {
				t.Fatalf("line %#x: forEach %+v, model %+v", uint64(l), info, ref[l])
			}
		})
	})
}

// TestLineTableZeroAlloc pins the directory's hot operations at zero
// allocations once the table has grown to its working size (lookup,
// update, delete, reinsert — the steady-state mix the bus snoop path
// performs).
func TestLineTableZeroAlloc(t *testing.T) {
	tab := newLineTable()
	for i := 1; i <= 64; i++ {
		tab.put(addrspace.Line(i), lineInfo{owner: 1, copies: 3})
	}
	var sink lineInfo
	allocs := loopAllocs(func() {
		for i := 0; i < 1000; i++ {
			sink, _ = tab.get(37)
			tab.put(37, lineInfo{owner: 2, copies: 7})
			tab.del(37)
			tab.put(37, lineInfo{owner: 1, copies: 3})
		}
	})
	if allocs != 0 {
		t.Fatalf("directory ops allocate %.0f times in 1000 rounds, want 0", allocs)
	}
	_ = sink
}

// TestProtocolSteadyStateZeroAlloc pins the full protocol Read/Write path
// (directory + tag arrays + scratch Txns buffer) at zero allocations per
// reference once the working set is warm.
func TestProtocolSteadyStateZeroAlloc(t *testing.T) {
	const (
		nodes = 4
		sets  = 16
		ways  = 2
	)
	p := NewProtocol(Config{Nodes: nodes, SetsPerAM: sets, Ways: ways})
	// Warm a working set below capacity so no growth happens mid-run.
	lines := nodes * sets * ways * 3 / 4
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4*lines; i++ {
		l := addrspace.Line(rng.Intn(lines) + 1)
		if i%3 == 0 {
			p.Write(rng.Intn(nodes), l)
		} else {
			p.Read(rng.Intn(nodes), l)
		}
	}
	// Steady state: a fixed reference sequence, repeated.
	seq := make([]struct {
		node  int
		line  addrspace.Line
		write bool
	}, 256)
	for i := range seq {
		seq[i].node = rng.Intn(nodes)
		seq[i].line = addrspace.Line(rng.Intn(lines) + 1)
		seq[i].write = rng.Intn(3) == 0
	}
	allocs := loopAllocs(func() {
		for i := 0; i < 2000; i++ {
			s := seq[i%len(seq)]
			if s.write {
				p.Write(s.node, s.line)
			} else {
				p.Read(s.node, s.line)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state protocol references allocate %.0f times in 2000, want 0", allocs)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectorySizedByResidentLines pins the line tables' sizing at the
// paper's 6% memory pressure, where each of 16 nodes' attraction memories
// can hold the whole working set: the protocol index and the ring's
// bottom and root directories end up sized by the lines actually
// resident, not by the attraction-memory capacity.
func TestDirectorySizedByResidentLines(t *testing.T) {
	const (
		nodes   = 16
		ways    = 4
		working = 4096 // distinct lines touched
	)
	sets := working/ways | 1 // as machine.Params sizes a 6%-pressure AM
	h := NewHierarchy(nodes, 4)
	p := NewProtocol(Config{Nodes: nodes, SetsPerAM: sets, Ways: ways, Transition: h.OnTransition})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 16*working; i++ {
		l := addrspace.Line(rng.Intn(working) + 1)
		if i%3 == 0 {
			p.Write(rng.Intn(nodes), l)
		} else {
			p.Read(rng.Intn(nodes), l)
		}
	}
	if err := h.Check(p); err != nil {
		t.Fatal(err)
	}
	if p.index.len() != working {
		t.Fatalf("index holds %d lines, want all %d resident", p.index.len(), working)
	}
	// A table that doubles at 75% load ends with at most 8/3 slots per
	// line it ever held; the attraction memories hold 16 per line.
	limit := working * 8 / 3
	if am := nodes * sets * ways; 4*limit > am {
		t.Fatalf("test premise: %d AM lines is not far above the %d-slot limit", am, limit)
	}
	tables := map[string]*lineTable{"index": p.index, "root": h.root.t}
	for c := range h.bottoms {
		tables[fmt.Sprintf("bottom %d", c)] = h.bottoms[c].t
	}
	for name, tab := range tables {
		if n := len(tab.slots); n > limit {
			t.Errorf("%s: %d slots for at most %d resident lines (limit %d)", name, n, working, limit)
		}
	}
}

// loopAllocs counts heap allocations over whole runs of loop and returns
// the fewest of up to three runs. One run per step would let
// testing.AllocsPerRun's integer division read 0 for a path that
// allocates on most steps but not all. A rare allocation by the runtime
// itself, seen under CPU contention, can land in one run but not in
// all three, while an allocation on the measured path lands in every run.
func loopAllocs(loop func()) float64 {
	n := testing.AllocsPerRun(1, loop)
	for i := 1; i < 3 && n > 0; i++ {
		n = min(n, testing.AllocsPerRun(1, loop))
	}
	return n
}
