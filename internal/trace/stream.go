package trace

import (
	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Stream is one processor's reference stream in compact form: one 64-bit
// word per record (a 3-bit kind tag and a 61-bit payload) instead of a
// 32-byte Ref struct. Read/Write carry the address inline, Compute the
// duration, Barrier/MeasureStart the id; records that need more than one
// field (Acquire/Release carry both an address and a lock id) spill to a
// small side table of full Refs. Workload traces are dominated by reads
// and writes, so the compact form is ~4x smaller than []Ref and scans as
// a flat uint64 array in the simulator's hot loop.
type Stream struct {
	ops  []uint64
	side []Ref
}

// Record encoding: kind tag in the top 3 bits, payload in the low 61.
// Kind values 0..6 are the Ref kinds; tag 7 marks an indirect record
// whose payload indexes the side table.
const (
	opKindShift            = 61
	opPayloadMask   uint64 = 1<<opKindShift - 1
	opIndirect      uint64 = 7
	opIndirectShift        = opIndirect << opKindShift
)

// Len returns the number of records in the stream.
func (s *Stream) Len() int { return len(s.ops) }

// At decodes record i. The Ref is reconstructed by value; mutating it
// does not affect the stream.
func (s *Stream) At(i int) Ref {
	op := s.ops[i]
	pl := op & opPayloadMask
	switch k := Kind(op >> opKindShift); k {
	case Read, Write:
		return Ref{Kind: k, Addr: addrspace.Addr(pl)}
	case Compute:
		return Ref{Kind: Compute, Dur: engine.Time(pl)}
	case Barrier, MeasureStart:
		return Ref{Kind: k, ID: uint32(pl)}
	default:
		return s.side[pl]
	}
}

// Kind returns record i's kind without decoding the rest of the record.
func (s *Stream) Kind(i int) Kind {
	op := s.ops[i]
	if op >= opIndirectShift {
		return s.side[op&opPayloadMask].Kind
	}
	return Kind(op >> opKindShift)
}

// Append adds r to the stream.
func (s *Stream) Append(r Ref) { s.ops = append(s.ops, pack(r, &s.side)) }

// pack returns r's op word: r itself when it packs inline, otherwise an
// indirect record pointing at r, which it appends to *side.
func pack(r Ref, side *[]Ref) uint64 {
	if op, ok := inlineOp(r); ok {
		return op
	}
	*side = append(*side, r)
	return opIndirectShift | uint64(len(*side)-1)
}

// inlineOp packs r into a single op word when it is in canonical form
// for its kind (unused fields zero, payload within 61 bits). Refs that
// don't fit — always Acquire/Release, and any denormal record such as a
// Read with a stray Dur — go through the side table instead so that
// At(i) reproduces the original Ref exactly.
func inlineOp(r Ref) (uint64, bool) {
	switch r.Kind {
	case Read, Write:
		if r.ID == 0 && r.Dur == 0 && uint64(r.Addr) <= opPayloadMask {
			return uint64(r.Kind)<<opKindShift | uint64(r.Addr), true
		}
	case Compute:
		if r.ID == 0 && r.Addr == 0 && r.Dur >= 0 && uint64(r.Dur) <= opPayloadMask {
			return uint64(Compute)<<opKindShift | uint64(r.Dur), true
		}
	case Barrier, MeasureStart:
		if r.Addr == 0 && r.Dur == 0 {
			return uint64(r.Kind)<<opKindShift | uint64(r.ID), true
		}
	}
	return 0, false
}

// Refs materializes the stream as the old boxed form. For tools and
// tests; the simulator iterates with At.
func (s *Stream) Refs() []Ref {
	out := make([]Ref, len(s.ops))
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// MemBytes is the approximate heap footprint of the stream's backing
// arrays, for cache-size accounting.
func (s *Stream) MemBytes() int {
	return 8*cap(s.ops) + 32*cap(s.side)
}

// grow preallocates capacity for n more records.
func (s *Stream) grow(n int) {
	if need := len(s.ops) + n; need > cap(s.ops) {
		ops := make([]uint64, len(s.ops), need)
		copy(ops, s.ops)
		s.ops = ops
	}
}

// FromRefs builds a Trace from old-form per-processor []Ref slices.
// Intended for tests and migration of externally built traces.
func FromRefs(name string, workingSet uint64, streams [][]Ref) *Trace {
	t := &Trace{
		Name:       name,
		Procs:      len(streams),
		WorkingSet: workingSet,
		Streams:    make([]Stream, len(streams)),
	}
	for p, st := range streams {
		t.Streams[p].grow(len(st))
		for _, r := range st {
			t.Streams[p].Append(r)
		}
	}
	return t
}
