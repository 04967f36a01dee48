package trace

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Kind discriminates trace records.
type Kind uint8

// Trace record kinds.
const (
	// Read is a data load from Addr. The processor stalls until it
	// completes (release consistency: reads are blocking).
	Read Kind = iota
	// Write is a data store to Addr. It retires through the write buffer;
	// the processor does not stall unless the buffer is full.
	Write
	// Compute advances the processor's clock by Dur nanoseconds of busy
	// execution (instructions that hit in the L1).
	Compute
	// Acquire obtains the lock identified by ID, performing a
	// read-modify-write on Addr (the lock's home line).
	Acquire
	// Release drains the write buffer and frees lock ID via Addr.
	Release
	// Barrier blocks until all processors reach barrier ID.
	Barrier
	// MeasureStart marks the beginning of the measured parallel section;
	// it acts as a barrier and resets all statistics (the paper measures
	// only the parallel section, per SPLASH-2 guidance).
	MeasureStart
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Compute:
		return "compute"
	case Acquire:
		return "acquire"
	case Release:
		return "release"
	case Barrier:
		return "barrier"
	case MeasureStart:
		return "measure-start"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Ref is one trace record. Addr is meaningful for Read/Write/Acquire/
// Release; ID for Acquire/Release/Barrier; Dur for Compute.
type Ref struct {
	Kind Kind
	Addr addrspace.Addr
	ID   uint32
	Dur  engine.Time
}

// Trace holds the generated streams for every processor plus workload
// metadata needed to size the machine.
type Trace struct {
	// Name identifies the workload (e.g. "radix").
	Name string
	// Procs is the number of logical processors (streams).
	Procs int
	// WorkingSet is the application footprint in bytes (page-rounded),
	// from which attraction-memory sizes are derived via memory pressure.
	WorkingSet uint64
	// Streams[p] is processor p's reference stream in compact form.
	Streams []Stream
}

// MemBytes is the approximate heap footprint of all streams' backing
// arrays.
func (t *Trace) MemBytes() int {
	var n int
	for i := range t.Streams {
		n += t.Streams[i].MemBytes()
	}
	return n
}

// Validate checks structural invariants: stream count, barrier pairing is
// not checked here (the machine enforces it), but every stream must
// contain exactly one MeasureStart and addresses must be non-zero for
// memory operations. It scans op words, decoding only the records that
// live in the side table, which it checks exactly as At would return them.
func (t *Trace) Validate() error {
	if len(t.Streams) != t.Procs {
		return fmt.Errorf("trace %s: %d streams for %d procs", t.Name, len(t.Streams), t.Procs)
	}
	for p := range t.Streams {
		st := &t.Streams[p]
		measures := 0
		for i, op := range st.ops {
			switch k := Kind(op >> opKindShift); k {
			case Read, Write:
				if op&opPayloadMask == 0 {
					return errZeroAddr(t, p, i, k)
				}
			case Compute, Barrier:
				// An inline duration is unsigned; barrier ids carry no check.
			case MeasureStart:
				measures++
			default:
				r := st.side[op&opPayloadMask]
				switch r.Kind {
				case Read, Write, Acquire, Release:
					if r.Addr == 0 {
						return errZeroAddr(t, p, i, r.Kind)
					}
				case Compute:
					if r.Dur < 0 {
						return fmt.Errorf("trace %s: proc %d ref %d negative compute", t.Name, p, i)
					}
				case MeasureStart:
					measures++
				}
			}
		}
		if measures != 1 {
			return fmt.Errorf("trace %s: proc %d has %d MeasureStart records (want 1)", t.Name, p, measures)
		}
	}
	return nil
}

func errZeroAddr(t *Trace, p, i int, k Kind) error {
	return fmt.Errorf("trace %s: proc %d ref %d (%s) has zero address", t.Name, p, i, k)
}

// Counts tallies a trace's records by kind.
type Counts struct {
	Reads, Writes      int64
	Acquires, Barriers int64
	ComputeTotal       engine.Time
}

// Stats summarizes a trace for inspection tools and tests.
type Stats struct {
	Counts
	// DistinctLines is the number of distinct cache lines touched.
	DistinctLines int
	// SharedLines is the number of lines touched by 2+ processors.
	SharedLines int
}

// Counts scans the whole trace once and tallies its records. It
// allocates nothing, so it suits request paths that Summarize's line map
// would slow down.
func (t *Trace) Counts() Counts {
	var c Counts
	for p := range t.Streams {
		st := &t.Streams[p]
		for i := 0; i < st.Len(); i++ {
			r := st.At(i)
			switch r.Kind {
			case Read:
				c.Reads++
			case Write:
				c.Writes++
			case Compute:
				c.ComputeTotal += r.Dur
			case Acquire:
				c.Acquires++
			case Barrier:
				c.Barriers++
			}
		}
	}
	return c
}

// sharedLine marks a line in Summarize's first-toucher map once a second
// processor has touched it.
const sharedLine = -1

// Summarize adds the distinct and shared line counts to Counts. It is
// O(refs) and allocates a map over touched lines; intended for tools and
// tests, not the simulation loop.
func (t *Trace) Summarize() Stats {
	s := Stats{Counts: t.Counts()}
	// Each line maps to the processor that touched it first, or to
	// sharedLine once another one has: exact at any processor count.
	touched := make(map[addrspace.Line]int)
	for p := range t.Streams {
		st := &t.Streams[p]
		for i := 0; i < st.Len(); i++ {
			r := st.At(i)
			if r.Kind != Read && r.Kind != Write {
				continue
			}
			l := addrspace.LineOf(r.Addr)
			first, seen := touched[l]
			switch {
			case !seen:
				touched[l] = p
			case first != p && first != sharedLine:
				touched[l] = sharedLine
				s.SharedLines++
			}
		}
	}
	s.DistinctLines = len(touched)
	return s
}
