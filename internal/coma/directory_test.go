package coma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/cache"
)

// flatDir is the obvious reference implementation of the two-level
// directory: plain maps, rescanned on every query. The real Hierarchy
// layers its bookkeeping on the open-addressed lineTable (with its
// backward-shift deletion); the property test below drives both with the
// same transition stream and demands identical answers.
type flatDir struct {
	clusters, perClust int
	// state[node][line] is the node's AM state for the line (valid
	// states only; absent means Invalid).
	state []map[addrspace.Line]cache.State
	// owner[line] is the cluster of the last Owner/Exclusive transition
	// since the line became resident; -1 before any.
	owner map[addrspace.Line]int
}

func newFlatDir(nodes, clusters int) *flatDir {
	f := &flatDir{
		clusters: clusters,
		perClust: nodes / clusters,
		state:    make([]map[addrspace.Line]cache.State, nodes),
		owner:    make(map[addrspace.Line]int),
	}
	for n := range f.state {
		f.state[n] = make(map[addrspace.Line]cache.State)
	}
	return f
}

func (f *flatDir) resident(l addrspace.Line) bool {
	for _, m := range f.state {
		if _, ok := m[l]; ok {
			return true
		}
	}
	return false
}

func (f *flatDir) onTransition(node int, l addrspace.Line, from, to cache.State) {
	wasResident := f.resident(l)
	if to == cache.Invalid {
		delete(f.state[node], l)
	} else {
		f.state[node][l] = to
	}
	if !wasResident && to != cache.Invalid {
		f.owner[l] = -1
	}
	if to == Owner || to == Exclusive {
		f.owner[l] = node / f.perClust
	}
	if !f.resident(l) {
		delete(f.owner, l)
	}
}

func (f *flatDir) count(c int, l addrspace.Line) int {
	n := 0
	for node := c * f.perClust; node < (c+1)*f.perClust; node++ {
		if _, ok := f.state[node][l]; ok {
			n++
		}
	}
	return n
}

func (f *flatDir) lookup(l addrspace.Line) (owner int, mask uint64, ok bool) {
	for c := 0; c < f.clusters; c++ {
		if f.count(c, l) > 0 {
			mask |= 1 << uint(c)
		}
	}
	if mask == 0 {
		return -1, 0, false
	}
	return f.owner[l], mask, true
}

// agree demands that the Hierarchy and the flat reference answer every
// query identically for the given lines.
func agree(t *testing.T, h *Hierarchy, f *flatDir, lines []addrspace.Line) bool {
	t.Helper()
	for _, l := range lines {
		for c := 0; c < f.clusters; c++ {
			if got, want := h.Bottom(c).Count(l), f.count(c, l); got != want {
				t.Logf("line %#x cluster %d: bottom count %d, reference %d", uint64(l), c, got, want)
				return false
			}
		}
		gotO, gotM, gotOK := h.Root().Lookup(l)
		wantO, wantM, wantOK := f.lookup(l)
		if gotOK != wantOK || gotM != wantM || (wantOK && gotO != wantO) {
			t.Logf("line %#x: root (%d, %#x, %v), reference (%d, %#x, %v)",
				uint64(l), gotO, gotM, gotOK, wantO, wantM, wantOK)
			return false
		}
	}
	return true
}

// validStates are the transition targets a resident line can move
// between (plus Invalid for eviction, handled separately).
var validStates = [3]cache.State{Shared, Owner, Exclusive}

// The two-level directory answers every count/lookup query exactly like
// the flat map reference under arbitrary permutations of inserts,
// evictions and state migrations. Line counts deliberately exceed the
// tables' initial capacity, so deletions keep triggering the lineTable's
// backward-shift compaction mid-sequence — the implementation detail
// most likely to corrupt a neighbouring probe chain.
func TestHierarchyMatchesFlatReference(t *testing.T) {
	prop := func(seed int64, cSel, pcSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		clusters := 1 + int(cSel)%8
		perClust := 1 + int(pcSel)%4
		nodes := clusters * perClust
		// 40 distinct lines against 16-slot starting tables force
		// growth and dense probe chains.
		h := NewHierarchy(nodes, clusters)
		f := newFlatDir(nodes, clusters)
		lines := make([]addrspace.Line, 40)
		for i := range lines {
			// Clustered line numbers collide in the table's low bits.
			lines[i] = addrspace.Line(0x40 + i*3)
		}
		cur := make(map[[2]int]cache.State)
		for step := 0; step < 3000; step++ {
			n := rng.Intn(nodes)
			li := rng.Intn(len(lines))
			l := lines[li]
			from := cur[[2]int{n, li}]
			var to cache.State
			if from == cache.Invalid {
				to = validStates[rng.Intn(3)]
			} else if rng.Intn(2) == 0 {
				to = cache.Invalid
			} else {
				to = validStates[rng.Intn(3)]
				if to == from {
					to = cache.Invalid
				}
			}
			cur[[2]int{n, li}] = to
			h.OnTransition(n, l, from, to)
			f.onTransition(n, l, from, to)
			// Spot-check the touched line every step, everything
			// periodically.
			if !agree(t, h, f, lines[li:li+1]) {
				t.Logf("diverged at step %d (c=%d pc=%d)", step, clusters, perClust)
				return false
			}
			if step%512 == 511 && !agree(t, h, f, lines) {
				t.Logf("full divergence at step %d (c=%d pc=%d)", step, clusters, perClust)
				return false
			}
		}
		return agree(t, h, f, lines)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Evicting the last copy must fully retire a line — bottom and root
// forget it — and re-inserting it afterwards starts from a clean slate
// with no stale owner. This is the "no line lost (or resurrected)
// across a ring hop" edge the incremental bookkeeping could get wrong.
func TestHierarchyRetireAndReinsert(t *testing.T) {
	h := NewHierarchy(4, 2)
	l := addrspace.Line(0x99)
	h.OnTransition(0, l, cache.Invalid, Exclusive)
	h.OnTransition(3, l, cache.Invalid, Shared)
	if o, m, ok := h.Root().Lookup(l); !ok || o != 0 || m != 0b11 {
		t.Fatalf("after fill: owner %d mask %#x ok %v", o, m, ok)
	}
	h.OnTransition(3, l, Shared, cache.Invalid)
	h.OnTransition(0, l, Exclusive, cache.Invalid)
	if _, _, ok := h.Root().Lookup(l); ok {
		t.Fatal("line still tracked after last eviction")
	}
	if h.Bottom(0).Lines() != 0 || h.Bottom(1).Lines() != 0 {
		t.Fatal("bottoms still tracking after last eviction")
	}
	// Reinsert as Shared-only: fresh entry, no inherited owner.
	h.OnTransition(2, l, cache.Invalid, Shared)
	if o, m, ok := h.Root().Lookup(l); !ok || o != -1 || m != 0b10 {
		t.Fatalf("after reinsert: owner %d mask %#x ok %v", o, m, ok)
	}
}

// Directory maintenance on warmed tables is allocation-free: the
// OnTransition path (bottom add/remove, root mask updates) sits on the
// ring machine's per-reference hot path and must not allocate once the
// tables have grown to their working size.
func TestHierarchyMaintenanceZeroAlloc(t *testing.T) {
	h := NewHierarchy(8, 4)
	lines := make([]addrspace.Line, 128)
	for i := range lines {
		lines[i] = addrspace.Line(0x1000 + i)
	}
	for _, l := range lines {
		h.OnTransition(0, l, cache.Invalid, Exclusive)
	}
	got := loopAllocs(func() {
		for i := 0; i < 5000; i++ {
			l := lines[i%len(lines)]
			n := (i*5 + 1) % 8
			h.OnTransition(n, l, cache.Invalid, Shared)
			h.OnTransition(n, l, Shared, cache.Invalid)
		}
	})
	if got != 0 {
		t.Fatalf("directory maintenance allocates %.0f times in 5000 rounds, want 0", got)
	}
}
