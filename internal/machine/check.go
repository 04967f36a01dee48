package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/coma"
)

// CheckState verifies cross-layer invariants after (or during) a run;
// tests call it to validate random-workload executions.
//
// Checked: the COMA protocol's global invariants (single owner, index/tag
// agreement); on ring topologies the two-level directory's exactness
// against the tag arrays (coma.Hierarchy.Check); and — on an inclusive
// hierarchy — that every line resident in a private L1 or SLC is also
// resident in its node's attraction memory, with dirty SLC lines backed
// by an Exclusive AM line.
func (m *Machine) CheckState() error {
	if m.prot == nil {
		return nil // non-COMA memory systems carry their own checks
	}
	if err := m.prot.CheckInvariants(); err != nil {
		return err
	}
	if m.hier != nil {
		if err := m.hier.Check(m.prot); err != nil {
			return err
		}
	}
	if !m.params.Inclusive {
		return nil
	}
	for _, p := range m.procs {
		am := m.prot.AM(p.node)
		for _, tag := range p.l1.tags {
			if tag == 0 {
				continue
			}
			if _, ok := am.Lookup(tag - 1); !ok {
				return fmt.Errorf("machine: proc %d L1 line %#x not in node %d AM (inclusion)",
					p.id, uint64(tag-1), p.node)
			}
		}
		var err error
		p.slc.ForEach(func(e cache.Entry) {
			if err != nil {
				return
			}
			st, ok := am.Lookup(e.Line)
			if !ok {
				err = fmt.Errorf("machine: proc %d SLC line %#x not in node %d AM (inclusion)",
					p.id, uint64(e.Line), p.node)
				return
			}
			if e.State == cacheDirty && st != coma.Exclusive {
				err = fmt.Errorf("machine: proc %d SLC line %#x dirty but AM state is %d",
					p.id, uint64(e.Line), st)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
