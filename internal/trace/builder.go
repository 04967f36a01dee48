package trace

import (
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Builder accumulates per-processor streams while a workload kernel runs.
// Kernels are single-threaded generators: they iterate over logical
// processors and emit each processor's references for a phase, separated
// by barriers; the timing simulator later interleaves the streams. The
// builder emits the compact Stream form directly, so a generated trace
// never exists in the boxed []Ref representation.
//
// While the kernel runs, each processor's 4-byte op words go into
// fixed-size chunks; Build copies them once into an exact-size array per
// stream.
// Growing one slice per stream instead re-copies it at every 1.25×
// growth step and leaves up to a quarter of it as spare capacity.
type Builder struct {
	name      string
	procs     int
	pending   []pendingStream
	barrierID uint32
	measured  bool
}

// chunkOps is the op-word capacity of one builder chunk: 32 KiB, the
// largest size the runtime still serves from its per-size-class caches.
const chunkOps = 8192

// pendingStream is one processor's stream under construction: its full
// chunks, the chunk being filled and the side table. A full chunk moves
// to full only when the next record needs room, so the last record
// pushed always sits in cur, where a Compute can coalesce with it.
type pendingStream struct {
	full [][]uint32
	cur  []uint32
	side []Ref
}

// NewBuilder returns a builder for a workload with the given processor
// count.
func NewBuilder(name string, procs int) *Builder {
	if procs <= 0 {
		panic("trace: non-positive processor count")
	}
	return &Builder{name: name, procs: procs, pending: make([]pendingStream, procs)}
}

// Procs returns the processor count.
func (b *Builder) Procs() int { return b.procs }

// Read records a load by processor p.
func (b *Builder) Read(p int, a addrspace.Addr) { b.pending[p].mem(Read, a) }

// Write records a store by processor p.
func (b *Builder) Write(p int, a addrspace.Addr) { b.pending[p].mem(Write, a) }

// Compute charges d nanoseconds of busy execution to processor p.
// Successive computes are coalesced to keep traces compact.
func (b *Builder) Compute(p int, d engine.Time) {
	if d <= 0 {
		return
	}
	if s := &b.pending[p]; !s.addCompute(d) {
		s.compute(d)
	}
}

// Acquire records lock acquisition by p on lock id homed at address a.
func (b *Builder) Acquire(p int, id uint32, a addrspace.Addr) {
	b.pending[p].append(Ref{Kind: Acquire, Addr: a, ID: id})
}

// Release records release by p of lock id homed at address a.
func (b *Builder) Release(p int, id uint32, a addrspace.Addr) {
	b.pending[p].append(Ref{Kind: Release, Addr: a, ID: id})
}

// Barrier emits a global barrier record to every processor's stream.
func (b *Builder) Barrier() {
	id := b.barrierID
	b.barrierID++
	b.broadcast(Ref{Kind: Barrier, ID: id})
}

// MeasureStart emits the measured-section marker to every stream. It must
// be called exactly once per workload, after initialization phases.
func (b *Builder) MeasureStart() {
	if b.measured {
		panic(fmt.Sprintf("trace %s: MeasureStart called twice", b.name))
	}
	b.measured = true
	b.broadcast(Ref{Kind: MeasureStart})
}

func (b *Builder) broadcast(r Ref) {
	for p := range b.pending {
		b.pending[p].append(r)
	}
}

// Build finalizes the trace. workingSet is the application footprint in
// bytes (normally Space.Allocated()). Every stream's arrays are exactly
// as long as their contents.
func (b *Builder) Build(workingSet uint64) *Trace {
	if !b.measured {
		panic(fmt.Sprintf("trace %s: built without MeasureStart", b.name))
	}
	streams := make([]Stream, b.procs)
	for p := range b.pending {
		streams[p] = b.pending[p].stream()
	}
	return &Trace{Name: b.name, Procs: b.procs, WorkingSet: workingSet, Streams: streams}
}

func (s *pendingStream) push(op uint32) {
	if len(s.cur) == cap(s.cur) {
		if s.cur != nil {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]uint32, 0, chunkOps)
	}
	s.cur = append(s.cur, op)
}

// mem records a Read or Write. An address that fits the inline payload
// is packed directly; any other spills to the side table through pack.
func (s *pendingStream) mem(k Kind, a addrspace.Addr) {
	if uint64(a) <= uint64(opPayloadMask) {
		s.push(uint32(k)<<opKindShift | uint32(a))
		return
	}
	s.append(Ref{Kind: k, Addr: a})
}

func (s *pendingStream) append(r Ref) { s.push(pack(r, &s.side)) }

// addCompute extends the trailing Compute record by d and reports whether
// it could within the 29-bit payload (the coalescing fast path).
func (s *pendingStream) addCompute(d engine.Time) bool {
	n := len(s.cur) - 1
	if n < 0 || s.cur[n]>>opKindShift != uint32(Compute) || uint64(s.cur[n]&opPayloadMask)+uint64(d) > uint64(opPayloadMask) {
		return false
	}
	s.cur[n] += uint32(d)
	return true
}

// compute records a Compute of d that addCompute could not absorb.
// Computes coalesce while the sum fits the wire's 61-bit payload, as they
// would in a 61-bit word: a sum too wide for the 29-bit word moves the
// trailing record to the side table, and a Compute already there grows
// in place. Otherwise d starts a new record.
func (s *pendingStream) compute(d engine.Time) {
	if n := len(s.cur) - 1; n >= 0 {
		switch op := s.cur[n]; op >> opKindShift {
		case uint32(Compute):
			if sum := uint64(op&opPayloadMask) + uint64(d); sum <= wirePayloadMask {
				s.cur[n] = spill(Ref{Kind: Compute, Dur: engine.Time(sum)}, &s.side)
				return
			}
		case opIndirect:
			if r := &s.side[op&opPayloadMask]; r.Kind == Compute && uint64(r.Dur)+uint64(d) <= wirePayloadMask {
				r.Dur += d
				return
			}
		}
	}
	s.append(Ref{Kind: Compute, Dur: d})
}

// stream copies the chunks and the side table into exact-size arrays.
func (s *pendingStream) stream() Stream {
	ops := make([]uint32, len(s.full)*chunkOps+len(s.cur))
	n := 0
	for _, c := range s.full {
		n += copy(ops[n:], c)
	}
	copy(ops[n:], s.cur)
	var side []Ref
	if len(s.side) > 0 {
		side = make([]Ref, len(s.side))
		copy(side, s.side)
	}
	return Stream{ops: ops, side: side}
}
