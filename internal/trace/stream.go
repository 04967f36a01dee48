package trace

import (
	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Stream is one processor's reference stream in compact form: one 32-bit
// word per record (a 3-bit kind tag and a 29-bit payload) instead of a
// 32-byte Ref struct. Read/Write carry the address inline, Compute the
// duration, Barrier/MeasureStart the id; records that need more than one
// field (Acquire/Release carry both an address and a lock id), or whose
// payload needs more than 29 bits, spill to a small side table of full
// Refs. Every generated workload keeps its addresses below 2^25,
// its computes below 2^14 ns and its barrier ids in the tens, so in
// practice only locks spill: the compact form is 8x smaller than []Ref
// and scans as a flat uint32 array in the simulator's hot loop.
//
// COMATRC2 (wire.go) carries the same records in 64-bit words with a
// 61-bit payload; the encoder widens each word and re-inlines the
// records that spilled only for width.
type Stream struct {
	ops  []uint32
	side []Ref
	// wireSide counts the leading side records that a decoded payload
	// carried in its own side table. The encoder writes them verbatim
	// and re-inlines only later records, so a decoded trace re-encodes
	// byte for byte.
	wireSide int
}

// Record encoding: kind tag in the top 3 bits, payload in the low 29.
// Kind values 0..6 are the Ref kinds; tag 7 marks an indirect record
// whose payload indexes the side table.
const (
	opKindShift            = 29
	opPayloadMask   uint32 = 1<<opKindShift - 1
	opIndirect      uint32 = 7
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
		return Ref{Kind: k, ID: pl}
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
func pack(r Ref, side *[]Ref) uint32 {
	if pl, ok := inlinePayload(r); ok && pl <= uint64(opPayloadMask) {
		return uint32(r.Kind)<<opKindShift | uint32(pl)
	}
	return spill(r, side)
}

// spill appends r to *side and returns the indirect record pointing at it.
func spill(r Ref, side *[]Ref) uint32 {
	if len(*side) > int(opPayloadMask) {
		panic("trace: side table outgrows the 29-bit record index")
	}
	*side = append(*side, r)
	return opIndirectShift | uint32(len(*side)-1)
}

// inlinePayload returns the payload r would carry in an op word when it
// is in canonical form for its kind: unused fields zero and a
// non-negative duration. Refs that aren't — always Acquire/Release, and
// any denormal record such as a Read with a stray Dur — go through the
// side table so that At(i) reproduces the original Ref exactly, as does
// a canonical record whose payload is wider than the word's.
func inlinePayload(r Ref) (uint64, bool) {
	switch r.Kind {
	case Read, Write:
		if r.ID == 0 && r.Dur == 0 {
			return uint64(r.Addr), true
		}
	case Compute:
		if r.ID == 0 && r.Addr == 0 && r.Dur >= 0 {
			return uint64(r.Dur), true
		}
	case Barrier, MeasureStart:
		if r.Addr == 0 && r.Dur == 0 {
			return uint64(r.ID), true
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
	return 4*cap(s.ops) + 32*cap(s.side)
}

// grow preallocates capacity for n more records.
func (s *Stream) grow(n int) {
	if need := len(s.ops) + n; need > cap(s.ops) {
		ops := make([]uint32, len(s.ops), need)
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
