package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addrspace"
)

// wireSample builds a small but fully featured trace: inline reads,
// writes, computes and barriers plus side-table acquire/release pairs.
func wireSample() *Trace {
	b := NewBuilder("wire-sample", 3)
	for p := 0; p < 3; p++ {
		b.Write(p, addrspace.Addr(0x1000+64*p))
		b.Compute(p, 10)
	}
	b.Barrier()
	b.MeasureStart()
	for p := 0; p < 3; p++ {
		b.Read(p, addrspace.Addr(0x2000+64*p))
		b.Acquire(p, 1, 0x3000)
		b.Write(p, 0x3040)
		b.Release(p, 1, 0x3000)
		b.Compute(p, 25)
	}
	b.Barrier()
	return b.Build(addrspace.PageSize)
}

func TestCompactRoundTrip(t *testing.T) {
	tr := wireSample()
	enc := tr.EncodeCompact()
	got, err := DecodeCompact(enc)
	if err != nil {
		t.Fatalf("DecodeCompact: %v", err)
	}
	if got.Name != tr.Name || got.Procs != tr.Procs || got.WorkingSet != tr.WorkingSet {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	for p := range tr.Streams {
		want := tr.Streams[p].Refs()
		have := got.Streams[p].Refs()
		if len(want) != len(have) {
			t.Fatalf("proc %d: %d refs decoded, want %d", p, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("proc %d ref %d: %+v != %+v", p, i, have[i], want[i])
			}
		}
	}
	// The stream arrays pass through verbatim, so re-encoding must
	// reproduce the input bytes exactly — the property the trace digest
	// and TRACES.md's worked example rely on.
	if !bytes.Equal(got.EncodeCompact(), enc) {
		t.Fatal("re-encode differs from original bytes")
	}
}

// corrupt returns enc with the byte at off overwritten.
func corrupt(enc []byte, off int, b byte) []byte {
	out := append([]byte(nil), enc...)
	out[off] = b
	return out
}

func TestDecodeCompactRejects(t *testing.T) {
	enc := wireSample().EncodeCompact()
	// Offsets into the sample's header: magic [0,8), nameLen [8,12),
	// name [12,23), procs [23,27), workingSet [27,35), stream 0 counts
	// [35,43).
	nameEnd := 12 + len("wire-sample")
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "reading magic"},
		{"truncated magic", enc[:4], "reading magic"},
		{"bad magic", corrupt(enc, 0, 'X'), "bad magic"},
		{"old version", corrupt(enc, 7, '1'), "bad magic"},
		{"future version", corrupt(enc, 7, '3'), "bad magic"},
		{"truncated header", enc[:10], "name length"},
		{"huge name", corrupt(enc, 10, 0xff), "implausible name length"},
		{"zero procs", corrupt(enc, nameEnd, 0), "processor count"},
		{"huge procs", corrupt(enc, nameEnd+2, 0xff), "implausible processor count"},
		{"zero working set", append(append(append([]byte{}, enc[:nameEnd+4]...), make([]byte, 8)...), enc[nameEnd+12:]...), "working set"},
		{"truncated stream", enc[:len(enc)-5], ""},
		{"trailing bytes", append(append([]byte(nil), enc...), 0xaa), "trailing bytes"},
		// Stream 0's op count inflated far beyond the remaining input:
		// the decoder must reject before allocating.
		{"oversized ops", corrupt(enc, nameEnd+15, 0x7f), ""},
		{"oversized side table", corrupt(enc, nameEnd+19, 0x7f), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeCompact(tc.data)
			if err == nil {
				t.Fatalf("decoded successfully: %+v", got)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeCompactRejectsBadOps corrupts individual op words and side
// records of an encoded trace, the cases where a naive decoder would
// panic later in Stream.At or the machine's sync handlers.
func TestDecodeCompactRejectsBadOps(t *testing.T) {
	enc := wireSample().EncodeCompact()
	// Proc 0's stream: its two counts, its ops (write, compute, barrier,
	// measure-start, read, acquire, write, release, compute, barrier),
	// then its side table (the acquire and the release).
	s0 := len(CompactMagic) + 4 + len("wire-sample") + 4 + 8
	ops := int(binary.LittleEndian.Uint32(enc[s0:]))
	side := func(j int) int { return s0 + 8 + 8*ops + sideRecordBytes*j }
	withOp := func(i int, k Kind, pl uint64) []byte {
		out := append([]byte(nil), enc...)
		copy(out[s0+8+8*i:], wireOp(k, pl))
		return out
	}
	// Proc 0's acquire and release side records, swapped.
	swapped := append([]byte(nil), enc...)
	copy(swapped[side(0):side(1)], enc[side(1):side(2)])
	copy(swapped[side(1):side(2)], enc[side(0):side(1)])
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"inline acquire", withOp(0, Acquire, 0x3000), "must spill"},
		{"inline release", withOp(0, Release, 0x3000), "must spill"},
		{"indirect out of range", withOp(0, Kind(opIndirect), 99), "outside side table"},
		{"barrier id overflow", withOp(0, Barrier, 1<<40), "overflows uint32"},
		{"bad side kind", corrupt(enc, side(0), 200), "unknown kind"},
		{"zero address read", withOp(0, Read, 0), "zero address"},
		{"double measure start", withOp(0, MeasureStart, 0), "MeasureStart"},
		{"release without acquire", swapped, "does not hold"},
		{"mismatched barriers", withOp(2, Barrier, 7), "barrier record"},
		// Turn proc 0's release into a read so the acquire dangles.
		{"ends holding lock", corrupt(enc, side(1), byte(Read)), "ends holding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCompact(tc.data)
			if err == nil {
				t.Fatal("decoded successfully")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// wideSample is a trace with a payload of every kind that is too wide for
// the 29-bit in-memory word but fits the wire's 61 bits — an address,
// a compute (one coalesced across 2^29, one coalesced into a spilled
// record) and a barrier id — plus a lock pair, built through Builder.
func wideSample() *Trace {
	b := NewBuilder("wide", 2)
	b.MeasureStart()
	b.Read(0, 1<<29)
	b.Compute(0, 1<<29+5)
	b.Compute(0, 2) // grows the spilled compute
	b.Acquire(0, 9, 0x3000)
	b.Release(0, 9, 0x3000)
	b.Write(1, 1<<40)
	b.Compute(1, 1<<29-1)
	b.Compute(1, 1) // the sum no longer fits 29 bits
	b.barrierID = 1<<29 + 3
	b.Barrier()
	b.Read(0, 64)
	return b.Build(addrspace.PageSize)
}

// wideRefs is wideSample's record sequence in boxed form.
var wideRefs = [][]Ref{
	{
		{Kind: MeasureStart},
		{Kind: Read, Addr: 1 << 29},
		{Kind: Compute, Dur: 1<<29 + 7},
		{Kind: Acquire, Addr: 0x3000, ID: 9},
		{Kind: Release, Addr: 0x3000, ID: 9},
		{Kind: Barrier, ID: 1<<29 + 3},
		{Kind: Read, Addr: 64},
	},
	{
		{Kind: MeasureStart},
		{Kind: Write, Addr: 1 << 40},
		{Kind: Compute, Dur: 1 << 29},
		{Kind: Barrier, ID: 1<<29 + 3},
	},
}

// le32, le64, wireOp and sideRecord spell out COMATRC2 fields as
// TRACES.md lays them out.
func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func wireOp(k Kind, pl uint64) []byte { return le64(uint64(k)<<wireKindShift | pl) }

func sideRecord(r Ref) []byte {
	b := append([]byte{byte(r.Kind)}, le64(uint64(r.Addr))...)
	return append(append(b, le32(r.ID)...), le64(uint64(r.Dur))...)
}

// wireHeader is a payload's header up to its first stream.
func wireHeader(name string, procs uint32) []byte {
	return bytes.Join([][]byte{[]byte(CompactMagic), le32(uint32(len(name))), []byte(name),
		le32(procs), le64(addrspace.PageSize)}, nil)
}

// payloadSideSample is a payload whose own side table holds records an
// encoder would have put inline, one of them too wide for the in-memory
// word, and whose ops include an inline wide word that spills on decode.
func payloadSideSample() []byte {
	return bytes.Join([][]byte{
		wireHeader("side", 1),
		le32(5), le32(2),
		wireOp(MeasureStart, 0), wireOp(Kind(opIndirect), 0), wireOp(Write, 1<<40),
		wireOp(Kind(opIndirect), 1), wireOp(Read, 64),
		sideRecord(Ref{Kind: Read, Addr: 1 << 29}), sideRecord(Ref{Kind: Compute, Dur: 5}),
	}, nil)
}

// TestWidePayloadsRoundTrip: records too wide for the in-memory word
// still encode inline in 8-byte wire words, with only the locks in the
// side table, whether the trace came from Builder or FromRefs; decoding
// and re-encoding reproduces the bytes and the records. A payload's own
// side records also come back verbatim, even ones an encoder would have
// inlined, with the decoder's spills kept apart from them.
func TestWidePayloadsRoundTrip(t *testing.T) {
	lock := func(k Kind) []byte { return sideRecord(Ref{Kind: k, Addr: 0x3000, ID: 9}) }
	want := bytes.Join([][]byte{
		wireHeader("wide", 2),
		le32(7), le32(2),
		wireOp(MeasureStart, 0), wireOp(Read, 1<<29), wireOp(Compute, 1<<29+7),
		wireOp(Kind(opIndirect), 0), wireOp(Kind(opIndirect), 1),
		wireOp(Barrier, 1<<29+3), wireOp(Read, 64),
		lock(Acquire), lock(Release),
		le32(4), le32(0),
		wireOp(MeasureStart, 0), wireOp(Write, 1<<40), wireOp(Compute, 1<<29), wireOp(Barrier, 1<<29+3),
	}, nil)
	for name, tr := range map[string]*Trace{
		"builder":  wideSample(),
		"FromRefs": FromRefs("wide", addrspace.PageSize, wideRefs),
	} {
		t.Run(name, func(t *testing.T) {
			enc := tr.EncodeCompact()
			if !bytes.Equal(enc, want) {
				t.Fatalf("encoding differs from the 61-bit wire form:\n got %x\nwant %x", enc, want)
			}
			got, err := DecodeCompact(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.EncodeCompact(), enc) {
				t.Fatal("re-encode differs from the decoded bytes")
			}
			for p := range wideRefs {
				if !reflect.DeepEqual(got.Streams[p].Refs(), wideRefs[p]) || !reflect.DeepEqual(tr.Streams[p].Refs(), wideRefs[p]) {
					t.Fatalf("proc %d: records %+v, decoded %+v, want %+v",
						p, tr.Streams[p].Refs(), got.Streams[p].Refs(), wideRefs[p])
				}
			}
		})
	}
	t.Run("payload side table", func(t *testing.T) {
		data := payloadSideSample()
		got, err := DecodeCompact(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.EncodeCompact(), data) {
			t.Fatalf("re-encode differs from the decoded bytes:\n got %x\nwant %x", got.EncodeCompact(), data)
		}
		refs := []Ref{{Kind: MeasureStart}, {Kind: Read, Addr: 1 << 29}, {Kind: Write, Addr: 1 << 40},
			{Kind: Compute, Dur: 5}, {Kind: Read, Addr: 64}}
		if !reflect.DeepEqual(got.Streams[0].Refs(), refs) {
			t.Fatalf("records %+v, want %+v", got.Streams[0].Refs(), refs)
		}
	})
}

// TestValidateSyncAcceptsBuilderTraces pins the guarantee ValidateSync's
// doc comment makes: every Builder-made trace passes.
func TestValidateSyncAcceptsBuilderTraces(t *testing.T) {
	if err := wireSample().ValidateSync(); err != nil {
		t.Fatalf("ValidateSync on builder trace: %v", err)
	}
}

// FuzzStreamDecode drives DecodeCompact with arbitrary bytes: it must
// never panic and never allocate past a small multiple of the input
// (enforced structurally: array lengths are checked against remaining
// input before allocation). Accepted inputs must round-trip.
func FuzzStreamDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(CompactMagic))
	sample := wireSample().EncodeCompact()
	f.Add(sample)
	f.Add(sample[:len(sample)-3])
	f.Add(wideSample().EncodeCompact())
	f.Add(payloadSideSample())
	// A header claiming a huge op count with no backing bytes.
	huge := append([]byte(CompactMagic), make([]byte, 32)...)
	binary.LittleEndian.PutUint32(huge[8:], 0)     // empty name
	binary.LittleEndian.PutUint32(huge[12:], 1)    // one proc
	binary.LittleEndian.PutUint64(huge[16:], 4096) // working set
	binary.LittleEndian.PutUint32(huge[24:], 1<<31)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeCompact(data)
		if err != nil {
			return
		}
		enc := tr.EncodeCompact()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not round-trip: %d bytes in, %d out", len(data), len(enc))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
	})
}
