package trace

import (
	"encoding/binary"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// Compact wire format ("COMATRC2"): the struct-of-arrays Stream encoding
// with every op word widened to 64 bits, so a trace round-trips bytes →
// Trace → bytes exactly. It is the only trace serialization: POST
// /v1/traces ingests it, cmd/tracedump -save writes it, and TRACES.md
// specifies it normatively.
//
// Layout (little endian throughout):
//
//	magic "COMATRC2" (8 bytes; the trailing digit is the format version)
//	nameLen u32 | name bytes (≤ 4096)
//	procs u32 (1..1024)
//	workingSet u64 (64 B .. 1 TiB)
//	per stream, procs times:
//	  opsLen u32 | sideLen u32
//	  opsLen × op u64      (packed records, see below)
//	  sideLen × side record: kind u8 | addr u64 | id u32 | dur i64 (21 B)
//	(no trailing bytes)
//
// An op word carries the in-memory word's 3-bit kind tag in bits 63..61
// and a 61-bit payload in bits 60..0. Tags 0 (Read) and 1 (Write) carry
// the address, 2 (Compute) the duration in nanoseconds, 5 (Barrier) and
// 6 (MeasureStart) the barrier id; tag 7 marks an indirect record whose
// payload indexes the stream's side table. Acquire (3) and Release (4)
// never appear inline — they need both an address and a lock id, so
// they always spill to the side table, as does any record whose fields
// exceed the 61-bit payload.
//
// A record whose payload fits 61 bits but not the in-memory word's 29
// sits in a Stream's side table. The encoder writes it back inline, so
// the wire never shows that spill; the decoder appends it after the
// payload's own side records, which it keeps verbatim.
const CompactMagic = "COMATRC2"

// Decoder hardening limits. The working-set bound keeps derived machine
// sizes inside int range on every platform.
const (
	maxWireName       = 4096
	maxWireProcs      = 1024
	minWireWorkingSet = uint64(addrspace.LineSize)
	maxWireWorkingSet = uint64(1) << 40
)

const sideRecordBytes = 1 + 8 + 4 + 8 // kind u8 | addr u64 | id u32 | dur i64

// Wire op words: the in-memory kind tag over a 61-bit payload.
const (
	wireKindShift          = 61
	wirePayloadMask uint64 = 1<<wireKindShift - 1
)

// EncodeCompact serializes the trace into the COMATRC2 wire form. Every
// op word widens to 64 bits, and a side record that spilled only because
// its payload needs more than 29 bits goes back inline, so the bytes are
// what 8-byte words packed the same way would hold. A decoded payload's
// own side records are written verbatim, so EncodeCompact(DecodeCompact(b))
// reproduces b byte for byte.
func (t *Trace) EncodeCompact() []byte {
	n := len(CompactMagic) + 4 + len(t.Name) + 4 + 8
	for i := range t.Streams {
		st := &t.Streams[i]
		n += 8 + 8*len(st.ops) + sideRecordBytes*len(st.side)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, CompactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Name)))
	buf = append(buf, t.Name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Procs))
	buf = binary.LittleEndian.AppendUint64(buf, t.WorkingSet)
	for i := range t.Streams {
		st := &t.Streams[i]
		slots, kept := st.wireSlots()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.ops)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(kept))
		for _, op := range st.ops {
			w := uint64(op>>opKindShift)<<wireKindShift | uint64(op&opPayloadMask)
			if op >= opIndirectShift {
				w = slots[op&opPayloadMask]
			}
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		for j, r := range st.side {
			if slots[j]>>wireKindShift != uint64(opIndirect) {
				continue
			}
			buf = append(buf, byte(r.Kind))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Addr))
			buf = binary.LittleEndian.AppendUint32(buf, r.ID)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Dur))
		}
	}
	return buf
}

// wireSlots returns, for each of the stream's side records, the wire op
// word that stands for it, and how many records stay in the wire's side
// table. A record past the decoded payload's own side records that fits
// the 61-bit payload is its inline word; every other record keeps a
// side slot, renumbered in order over the records that stay.
func (s *Stream) wireSlots() (slots []uint64, kept int) {
	if len(s.side) == 0 {
		return nil, 0
	}
	slots = make([]uint64, len(s.side))
	for j, r := range s.side {
		if pl, ok := inlinePayload(r); ok && j >= s.wireSide && pl <= wirePayloadMask {
			slots[j] = uint64(r.Kind)<<wireKindShift | pl
			continue
		}
		slots[j] = uint64(opIndirect)<<wireKindShift | uint64(kept)
		kept++
	}
	return slots, kept
}

// wireReader is a bounds-checked cursor over untrusted input. Every read
// verifies the remaining length first, so truncated or hostile inputs
// surface as errors, never as slice panics.
type wireReader struct {
	data []byte
	pos  int
}

func (r *wireReader) remaining() int { return len(r.data) - r.pos }

func (r *wireReader) take(n int) ([]byte, error) {
	if r.remaining() < n {
		return nil, fmt.Errorf("truncated: need %d bytes at offset %d, have %d", n, r.pos, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *wireReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *wireReader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// DecodeCompact parses a COMATRC2 trace from untrusted bytes. It never
// panics regardless of input: every length is checked against the
// remaining input before allocation (so memory use is bounded by a small
// multiple of len(data)), every op word and side record is validated
// against the Stream invariants that At relies on, and the decoded trace
// passes both Validate and ValidateSync — making it safe to hand to
// machine.Run directly.
func DecodeCompact(data []byte) (*Trace, error) {
	r := &wireReader{data: data}
	magic, err := r.take(len(CompactMagic))
	if err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != CompactMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", magic, CompactMagic)
	}
	nameLen, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxWireName {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	name, err := r.take(int(nameLen))
	if err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	procs, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("trace: reading processor count: %w", err)
	}
	if procs == 0 || procs > maxWireProcs {
		return nil, fmt.Errorf("trace: implausible processor count %d", procs)
	}
	ws, err := r.u64()
	if err != nil {
		return nil, fmt.Errorf("trace: reading working set: %w", err)
	}
	if ws < minWireWorkingSet || ws > maxWireWorkingSet {
		return nil, fmt.Errorf("trace: working set %d outside [%d, %d]", ws, minWireWorkingSet, maxWireWorkingSet)
	}
	t := &Trace{
		Name:       string(name),
		Procs:      int(procs),
		WorkingSet: ws,
		Streams:    make([]Stream, procs),
	}
	for p := range t.Streams {
		opsLen, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("trace: proc %d: reading op count: %w", p, err)
		}
		sideLen, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("trace: proc %d: reading side count: %w", p, err)
		}
		// Both arrays must fit in the remaining input; checking before
		// allocating bounds memory use by the input size.
		need := 8*uint64(opsLen) + sideRecordBytes*uint64(sideLen)
		if uint64(r.remaining()) < need {
			return nil, fmt.Errorf("trace: proc %d: stream claims %d bytes, %d remain", p, need, r.remaining())
		}
		// The op words are validated before anything is allocated for
		// them. A word whose payload is too wide for the 29-bit in-memory
		// word spills to the side table after the payload's own records,
		// so counting those first sizes the table exactly.
		opBytes, err := r.take(8 * int(opsLen))
		if err != nil {
			return nil, err
		}
		wide := 0
		for i := 0; i < int(opsLen); i++ {
			op := binary.LittleEndian.Uint64(opBytes[8*i:])
			if err := checkOpWord(op, sideLen); err != nil {
				return nil, fmt.Errorf("trace: proc %d op %d: %w", p, i, err)
			}
			if wideOp(op) {
				wide++
			}
		}
		if n := uint64(sideLen) + uint64(wide); n > uint64(opPayloadMask)+1 {
			return nil, fmt.Errorf("trace: proc %d: %d side records overflow the 29-bit side index", p, n)
		}
		st := &t.Streams[p]
		st.ops = make([]uint32, opsLen)
		if n := int(sideLen) + wide; n > 0 {
			st.side = make([]Ref, sideLen, n)
			st.wireSide = int(sideLen)
		}
		for i := range st.ops {
			op := binary.LittleEndian.Uint64(opBytes[8*i:])
			if wideOp(op) {
				st.ops[i] = spill(inlineRef(Kind(op>>wireKindShift), op&wirePayloadMask), &st.side)
				continue
			}
			st.ops[i] = uint32(op>>wireKindShift)<<opKindShift | uint32(op&wirePayloadMask)
		}
		for i := range st.side[:sideLen] {
			b, err := r.take(sideRecordBytes)
			if err != nil {
				return nil, err
			}
			kind := Kind(b[0])
			if kind > MeasureStart {
				return nil, fmt.Errorf("trace: proc %d side %d: unknown kind %d", p, i, b[0])
			}
			st.side[i] = Ref{
				Kind: kind,
				Addr: addrspace.Addr(binary.LittleEndian.Uint64(b[1:])),
				ID:   binary.LittleEndian.Uint32(b[9:]),
				Dur:  engine.Time(int64(binary.LittleEndian.Uint64(b[13:]))),
			}
		}
	}
	if n := r.remaining(); n != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes after last stream", n)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := t.ValidateSync(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkOpWord enforces the invariants Stream.At assumes: inline tags are
// limited to the kinds that pack into one word (Acquire/Release always
// spill), barrier ids fit their uint32 field, and indirect payloads index
// inside the side table.
func checkOpWord(op uint64, sideLen uint32) error {
	pl := op & wirePayloadMask
	switch tag := op >> wireKindShift; tag {
	case uint64(Read), uint64(Write), uint64(Compute):
		return nil
	case uint64(Barrier), uint64(MeasureStart):
		if pl > 1<<32-1 {
			return fmt.Errorf("barrier id %d overflows uint32", pl)
		}
		return nil
	case uint64(opIndirect):
		if pl >= uint64(sideLen) {
			return fmt.Errorf("indirect payload %d outside side table of %d", pl, sideLen)
		}
		return nil
	default: // Acquire/Release inline
		return fmt.Errorf("kind %s must spill to the side table", Kind(tag))
	}
}

// wideOp reports whether wire word op is an inline record whose payload
// is too wide for the 29-bit in-memory word.
func wideOp(op uint64) bool {
	return op>>wireKindShift != uint64(opIndirect) && op&wirePayloadMask > uint64(opPayloadMask)
}

// inlineRef is the record an inline op word of kind k with payload pl
// stands for.
func inlineRef(k Kind, pl uint64) Ref {
	switch k {
	case Read, Write:
		return Ref{Kind: k, Addr: addrspace.Addr(pl)}
	case Compute:
		return Ref{Kind: Compute, Dur: engine.Time(pl)}
	default:
		return Ref{Kind: k, ID: uint32(pl)}
	}
}

// ValidateSync statically checks the synchronization discipline that
// machine.Run enforces dynamically by panicking, so an untrusted trace
// that passes is guaranteed to never trip those panics:
//
//   - every stream carries the same sequence of barrier records (kind
//     and id), so no processor can arrive at one barrier while a
//     different one is in flight;
//   - within a stream, Release is only issued for a lock a prior Acquire
//     is still holding (program order per processor makes the static
//     holder the dynamic holder), no lock is re-acquired while held
//     (that would self-deadlock), and the stream ends holding nothing.
//
// Cross-processor lock-ordering deadlocks remain possible; machine.Run
// detects those and returns an error rather than hanging. Builder-made
// traces satisfy ValidateSync by construction.
func (t *Trace) ValidateSync() error {
	type sync struct {
		kind Kind
		id   uint32
	}
	var ref []sync
	for p := range t.Streams {
		st := &t.Streams[p]
		var seq []sync
		held := make(map[uint32]bool)
		for i := 0; i < st.Len(); i++ {
			r := st.At(i)
			switch r.Kind {
			case Barrier, MeasureStart:
				seq = append(seq, sync{r.Kind, r.ID})
			case Acquire:
				if held[r.ID] {
					return fmt.Errorf("trace %s: proc %d ref %d re-acquires held lock %d", t.Name, p, i, r.ID)
				}
				held[r.ID] = true
			case Release:
				if !held[r.ID] {
					return fmt.Errorf("trace %s: proc %d ref %d releases lock %d it does not hold", t.Name, p, i, r.ID)
				}
				delete(held, r.ID)
			}
		}
		for id := range held {
			return fmt.Errorf("trace %s: proc %d ends holding lock %d", t.Name, p, id)
		}
		if p == 0 {
			ref = seq
			continue
		}
		if len(seq) != len(ref) {
			return fmt.Errorf("trace %s: proc %d has %d barrier records, proc 0 has %d", t.Name, p, len(seq), len(ref))
		}
		for i := range seq {
			if seq[i] != ref[i] {
				return fmt.Errorf("trace %s: proc %d barrier record %d is %s %d, proc 0 has %s %d",
					t.Name, p, i, seq[i].kind, seq[i].id, ref[i].kind, ref[i].id)
			}
		}
	}
	return nil
}
