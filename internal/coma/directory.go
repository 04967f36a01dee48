package coma

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/cache"
)

// Two-level directory for hierarchical (ring-of-clusters) interconnects,
// after the DirectoryBottom/RootDirectory split of the DDM and mgsim COMA
// designs: each cluster keeps a bottom directory summarizing which lines
// its local attraction memories hold, and a single address-interleaved
// root directory records, per line, the set of clusters holding copies
// and the cluster of the Owner/Exclusive copy. A remote miss consults the
// root to find the supplier cluster instead of broadcasting to the whole
// machine.
//
// The directories are a derived view: the Protocol remains the single
// authority on line states. They are kept exactly in sync by observing
// the protocol's transition stream (Config.Transition), which carries
// every residency change — fills, evictions, invalidations, promotions —
// so no separate write path exists that could drift. Check verifies the
// mirror against the tag arrays; the ring fuzz tests call it after every
// randomized run.
//
// Both levels reuse the protocol's open-addressed lineTable, so directory
// maintenance inherits the allocation-free steady state of the bus path:
// the bottom tables store the local copy count in the lineInfo.copies
// field (count >= 1, matching the table's non-zero sentinel) and the root
// stores the cluster bitmask there, with the owner cluster in the owner
// field.

// DirectoryBottom tracks how many copies of each line a cluster's
// attraction memories hold. A line is present iff some node in the
// cluster holds it in any valid state.
type DirectoryBottom struct {
	t *lineTable
}

// Count returns the number of copies of l inside the cluster.
func (d *DirectoryBottom) Count(l addrspace.Line) int {
	info, ok := d.t.get(l)
	if !ok {
		return 0
	}
	return int(info.copies)
}

// Lines returns the number of distinct lines resident in the cluster.
func (d *DirectoryBottom) Lines() int { return d.t.len() }

// add records one more local copy and returns the new count.
func (d *DirectoryBottom) add(l addrspace.Line) int {
	info, _ := d.t.get(l)
	info.owner = -1
	info.copies++
	d.t.put(l, info)
	return int(info.copies)
}

// remove drops one local copy and returns the remaining count.
func (d *DirectoryBottom) remove(l addrspace.Line) int {
	info, ok := d.t.get(l)
	if !ok {
		panic("coma: DirectoryBottom removing an untracked line")
	}
	info.copies--
	if info.copies == 0 {
		d.t.del(l)
		return 0
	}
	d.t.put(l, info)
	return int(info.copies)
}

// RootDirectory resolves inter-cluster misses: per line, the bitmask of
// clusters holding copies and the cluster of the Owner/Exclusive copy.
type RootDirectory struct {
	t *lineTable
}

// Lookup returns the owner cluster and holder-cluster bitmask for l.
// ok is false when no cluster holds the line.
func (r *RootDirectory) Lookup(l addrspace.Line) (owner int, clusters uint64, ok bool) {
	info, ok := r.t.get(l)
	if !ok {
		return -1, 0, false
	}
	return int(info.owner), info.copies, true
}

// Lines returns the number of distinct lines tracked machine-wide.
func (r *RootDirectory) Lines() int { return r.t.len() }

func (r *RootDirectory) addCluster(l addrspace.Line, c int) {
	info, ok := r.t.get(l)
	if !ok {
		info.owner = -1
	}
	info.copies |= 1 << uint(c)
	r.t.put(l, info)
}

func (r *RootDirectory) removeCluster(l addrspace.Line, c int) {
	info, ok := r.t.get(l)
	if !ok {
		panic("coma: RootDirectory removing an untracked cluster")
	}
	info.copies &^= 1 << uint(c)
	if info.copies == 0 {
		r.t.del(l)
		return
	}
	r.t.put(l, info)
}

func (r *RootDirectory) setOwner(l addrspace.Line, c int) {
	info, ok := r.t.get(l)
	if !ok {
		panic("coma: RootDirectory owner for an untracked line")
	}
	info.owner = int16(c)
	r.t.put(l, info)
}

// Hierarchy bundles the directory levels for one ring machine: the
// node-to-cluster mapping, one DirectoryBottom per cluster and the
// RootDirectory. Register OnTransition as the protocol's Transition hook
// to keep the mirror exact.
type Hierarchy struct {
	clusters int
	perClust int
	bottoms  []DirectoryBottom
	root     RootDirectory
}

// NewHierarchy builds empty directories for a machine of `nodes` nodes in
// `clusters` equal contiguous clusters. Like the protocol's index, each
// table grows with the lines resident in its scope, so maintenance stops
// allocating once the working set is resident.
func NewHierarchy(nodes, clusters int) *Hierarchy {
	if clusters <= 0 || nodes%clusters != 0 {
		panic("coma: nodes must divide evenly into clusters")
	}
	h := &Hierarchy{
		clusters: clusters,
		perClust: nodes / clusters,
		bottoms:  make([]DirectoryBottom, clusters),
	}
	for c := range h.bottoms {
		h.bottoms[c].t = newLineTable()
	}
	h.root.t = newLineTable()
	return h
}

// Clusters returns the cluster count.
func (h *Hierarchy) Clusters() int { return h.clusters }

// Cluster maps a node to its cluster (contiguous blocks).
func (h *Hierarchy) Cluster(node int) int { return node / h.perClust }

// Bottom returns cluster c's directory.
func (h *Hierarchy) Bottom(c int) *DirectoryBottom { return &h.bottoms[c] }

// Root returns the root directory.
func (h *Hierarchy) Root() *RootDirectory { return &h.root }

// OnTransition mirrors one AM residency change into the directories. It
// is the protocol's Transition hook: from != to always holds.
func (h *Hierarchy) OnTransition(node int, l addrspace.Line, from, to cache.State) {
	c := node / h.perClust
	if from == cache.Invalid {
		if h.bottoms[c].add(l) == 1 {
			h.root.addCluster(l, c)
		}
	}
	if to == Owner || to == Exclusive {
		h.root.setOwner(l, c)
	}
	if to == cache.Invalid {
		if h.bottoms[c].remove(l) == 0 {
			h.root.removeCluster(l, c)
		}
	}
}

// CheckLine verifies one line's hierarchy invariants on top of the
// protocol's own per-line checks (Protocol.CheckLine): the bottom
// directories count exactly the cluster-local copies, the root's mask is
// exactly the set of holding clusters, and the root's owner cluster is
// the cluster of the machine-wide Owner/Exclusive holder. A line
// resident nowhere must be tracked nowhere — it cannot be "lost" into a
// directory level while in flight across a ring hop.
func (h *Hierarchy) CheckLine(p *Protocol, l addrspace.Line) error {
	if err := p.CheckLine(l); err != nil {
		return err
	}
	if p.nodes != h.clusters*h.perClust {
		return fmt.Errorf("hierarchy: built for %d nodes, protocol has %d", h.clusters*h.perClust, p.nodes)
	}
	owner := -1
	var mask uint64
	for n := 0; n < p.nodes; n++ {
		st, ok := p.ams[n].Lookup(l)
		if !ok {
			continue
		}
		c := h.Cluster(n)
		mask |= 1 << uint(c)
		if st == Owner || st == Exclusive {
			owner = c
		}
	}
	for c := 0; c < h.clusters; c++ {
		want := 0
		for n := c * h.perClust; n < (c+1)*h.perClust; n++ {
			if _, ok := p.ams[n].Lookup(l); ok {
				want++
			}
		}
		if got := h.bottoms[c].Count(l); got != want {
			return fmt.Errorf("hierarchy: line %#x cluster %d: bottom count %d, AMs hold %d",
				uint64(l), c, got, want)
		}
	}
	rootOwner, clusters, ok := h.root.Lookup(l)
	if mask == 0 {
		if ok {
			return fmt.Errorf("hierarchy: line %#x resident nowhere but root tracks mask %#x",
				uint64(l), clusters)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("hierarchy: line %#x resident but lost from the root directory", uint64(l))
	}
	if clusters != mask {
		return fmt.Errorf("hierarchy: line %#x root mask %#x, AMs say %#x", uint64(l), clusters, mask)
	}
	if rootOwner != owner {
		return fmt.Errorf("hierarchy: line %#x root owner cluster %d, AMs say %d", uint64(l), rootOwner, owner)
	}
	return nil
}

// CheckServed verifies CheckLine plus the protocol's service
// postcondition (Protocol.CheckServed); displacement by a relocation
// cascade still wraps ErrDisplaced.
func (h *Hierarchy) CheckServed(p *Protocol, node int, l addrspace.Line) error {
	if err := h.CheckLine(p, l); err != nil {
		return err
	}
	return p.CheckServed(node, l)
}

// Check verifies the hierarchy invariants against the protocol's tag
// arrays (the authority), independently of the incremental bookkeeping:
//
//	(1) exactly one Owner/Exclusive holder machine-wide per present line;
//	(2) every DirectoryBottom holds exactly its cluster's AM contents —
//	    inclusion in both directions, with exact copy counts;
//	(3) the root's cluster mask is exactly the union of the bottoms, and
//	    its owner cluster is the cluster of the protocol-level owner;
//	(4) no line is lost across a ring hop: every line the protocol
//	    indexes resolves through the root, and vice versa.
func (h *Hierarchy) Check(p *Protocol) error {
	if p.nodes != h.clusters*h.perClust {
		return fmt.Errorf("hierarchy: built for %d nodes, protocol has %d", h.clusters*h.perClust, p.nodes)
	}
	type want struct {
		counts []int
		owner  int
	}
	lines := make(map[addrspace.Line]*want)
	for n := 0; n < p.nodes; n++ {
		node := n
		var err error
		p.ams[n].ForEach(func(e cache.Entry) {
			if err != nil {
				return
			}
			w := lines[e.Line]
			if w == nil {
				w = &want{counts: make([]int, h.clusters), owner: -1}
				lines[e.Line] = w
			}
			w.counts[h.Cluster(node)]++
			if e.State == Owner || e.State == Exclusive {
				if w.owner >= 0 {
					err = fmt.Errorf("hierarchy: line %#x has two E/O holders (clusters %d and %d)",
						uint64(e.Line), w.owner, h.Cluster(node))
					return
				}
				w.owner = h.Cluster(node)
			}
		})
		if err != nil {
			return err
		}
	}
	for l, w := range lines {
		if w.owner < 0 {
			return fmt.Errorf("hierarchy: line %#x resident with no owner", uint64(l))
		}
		var mask uint64
		for c, cnt := range w.counts {
			got := h.bottoms[c].Count(l)
			if got != cnt {
				return fmt.Errorf("hierarchy: line %#x cluster %d: bottom count %d, AMs hold %d",
					uint64(l), c, got, cnt)
			}
			if cnt > 0 {
				mask |= 1 << uint(c)
			}
		}
		owner, clusters, ok := h.root.Lookup(l)
		if !ok {
			return fmt.Errorf("hierarchy: line %#x resident but lost from the root directory", uint64(l))
		}
		if clusters != mask {
			return fmt.Errorf("hierarchy: line %#x root mask %#x, AMs say %#x", uint64(l), clusters, mask)
		}
		if owner != w.owner {
			return fmt.Errorf("hierarchy: line %#x root owner cluster %d, AMs say %d", uint64(l), owner, w.owner)
		}
	}
	// No stale entries: bottoms and root must not track lines the AMs
	// dropped, and every protocol-indexed line must resolve via the root.
	for c := range h.bottoms {
		var stale error
		h.bottoms[c].t.forEach(func(l addrspace.Line, info lineInfo) {
			if stale == nil && lines[l] == nil {
				stale = fmt.Errorf("hierarchy: cluster %d bottom tracks absent line %#x (count %d)",
					c, uint64(l), info.copies)
			}
		})
		if stale != nil {
			return stale
		}
	}
	var stale error
	h.root.t.forEach(func(l addrspace.Line, info lineInfo) {
		if stale == nil && lines[l] == nil {
			stale = fmt.Errorf("hierarchy: root tracks absent line %#x (mask %#x)", uint64(l), info.copies)
		}
	})
	if stale != nil {
		return stale
	}
	var lost error
	p.index.forEach(func(l addrspace.Line, _ lineInfo) {
		if lost == nil {
			if _, _, ok := h.root.Lookup(l); !ok {
				lost = fmt.Errorf("hierarchy: indexed line %#x unresolvable through the root", uint64(l))
			}
		}
	})
	return lost
}
