package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/engine"
)

// twin drives a Builder and a plain per-processor []Ref model of the same
// record sequence. The model coalesces computes the way Builder.Compute
// documents: into the previous record when that is an inline Compute and
// the sum still fits the wire's 61-bit payload.
type twin struct {
	b    *Builder
	refs [][]Ref
}

func newTwin(procs int) *twin {
	return &twin{b: NewBuilder("twin", procs), refs: make([][]Ref, procs)}
}

func (w *twin) read(p int, a addrspace.Addr) {
	w.b.Read(p, a)
	w.refs[p] = append(w.refs[p], Ref{Kind: Read, Addr: a})
}

func (w *twin) write(p int, a addrspace.Addr) {
	w.b.Write(p, a)
	w.refs[p] = append(w.refs[p], Ref{Kind: Write, Addr: a})
}

func (w *twin) compute(p int, d engine.Time) {
	w.b.Compute(p, d)
	const max = engine.Time(wirePayloadMask)
	rs := w.refs[p]
	if n := len(rs) - 1; n >= 0 && rs[n].Kind == Compute && rs[n].Dur <= max && rs[n].Dur+d <= max {
		rs[n].Dur += d
		return
	}
	w.refs[p] = append(rs, Ref{Kind: Compute, Dur: d})
}

func (w *twin) lock(p int, id uint32, a addrspace.Addr) {
	w.b.Acquire(p, id, a)
	w.b.Release(p, id, a)
	w.refs[p] = append(w.refs[p], Ref{Kind: Acquire, Addr: a, ID: id}, Ref{Kind: Release, Addr: a, ID: id})
}

func (w *twin) barrier(k Kind) {
	id := uint32(0)
	if k == Barrier {
		id = w.b.barrierID
		w.b.Barrier()
	} else {
		w.b.MeasureStart()
	}
	for p := range w.refs {
		w.refs[p] = append(w.refs[p], Ref{Kind: k, ID: id})
	}
}

// pad appends reads to p until its stream holds n records.
func (w *twin) pad(p, n int) {
	for len(w.refs[p]) < n {
		w.read(p, addrspace.Addr(64*(len(w.refs[p])+1)))
	}
}

// TestBuilderMatchesFromRefs builds record sequences placed around the
// builder's chunk boundaries and requires the built streams to equal
// FromRefs' packing of the same records, op word for op word, with
// exact-size arrays.
func TestBuilderMatchesFromRefs(t *testing.T) {
	const wide = addrspace.Addr(opPayloadMask + 1) // spills to the side table
	cases := map[string]func(w *twin){
		"one chunk": func(w *twin) {
			w.barrier(MeasureStart)
			w.pad(0, chunkOps)
		},
		"one chunk plus one": func(w *twin) {
			w.barrier(MeasureStart)
			w.pad(0, chunkOps+1)
		},
		"compute coalesces across a chunk boundary": func(w *twin) {
			w.barrier(MeasureStart)
			w.pad(0, chunkOps-1)
			w.compute(0, 5) // last record of the first chunk
			w.compute(0, 7) // must merge into it, not open a chunk
			w.write(0, 0x40)
			w.compute(0, 3) // first record of the second chunk
			w.compute(0, 4)
		},
		"side-table record opens a chunk": func(w *twin) {
			w.barrier(MeasureStart)
			w.pad(0, chunkOps)
			w.lock(0, 3, 0x3000) // acquire is op 0 of chunk 2
			w.pad(0, 2*chunkOps)
			w.read(0, wide) // a wide read is op 0 of chunk 3
			w.pad(0, 3*chunkOps)
			w.compute(0, engine.Time(opPayloadMask)+9) // a wide compute opens chunk 4
			w.compute(0, 1)                            // and grows in the side table
			w.pad(0, 4*chunkOps-1)
			w.compute(0, engine.Time(opPayloadMask)-1) // the last op of chunk 4
			w.compute(0, 2)                            // spills when the sum passes 29 bits
			w.compute(0, engine.Time(wirePayloadMask)) // the sum would pass 61 bits: a new record
			w.compute(0, 1)                            // nor can this one join it
			w.lock(0, 4, 0x3040)
			w.write(0, wide) // nine side records: not a growth size
		},
		"several procs and barriers": func(w *twin) {
			for p := 0; p < 3; p++ {
				w.write(p, addrspace.Addr(0x1000+64*p))
				w.compute(p, 2)
			}
			w.barrier(Barrier)
			w.barrier(MeasureStart)
			w.pad(1, chunkOps-1)
			w.barrier(Barrier) // proc 1's barrier ends its first chunk
			w.compute(1, 11)
			w.pad(2, 2*chunkOps+1)
			w.write(2, wide)
			w.barrier(Barrier)
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			w := newTwin(3)
			fill(w)
			got := w.b.Build(addrspace.PageSize)
			want := FromRefs("twin", addrspace.PageSize, w.refs)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			for p := range got.Streams {
				st := &got.Streams[p]
				if !reflect.DeepEqual(*st, want.Streams[p]) {
					t.Fatalf("proc %d: builder stream (%d ops, %d side) differs from FromRefs (%d ops, %d side)",
						p, st.Len(), len(st.side), want.Streams[p].Len(), len(want.Streams[p].side))
				}
				if !reflect.DeepEqual(st.Refs(), w.refs[p]) {
					t.Fatalf("proc %d: builder stream does not decode to the recorded refs", p)
				}
				if cap(st.ops) != len(st.ops) || cap(st.side) != len(st.side) {
					t.Fatalf("proc %d: arrays not exact-size: ops %d/%d, side %d/%d",
						p, len(st.ops), cap(st.ops), len(st.side), cap(st.side))
				}
				if mb := st.MemBytes(); mb != 4*st.Len()+32*len(st.side) {
					t.Fatalf("proc %d: MemBytes %d, want 4*%d + 32*%d", p, mb, st.Len(), len(st.side))
				}
			}
		})
	}
	// The boundary cases above really did land on the boundary.
	w := newTwin(1)
	cases["one chunk"](w)
	if n := w.b.Build(64).Streams[0].Len(); n != chunkOps {
		t.Fatalf("one-chunk stream has %d records, want %d", n, chunkOps)
	}
}

// TestSummarizeSharedLinesAbove32Procs: processors p and p+32 touching
// the same line share it, as do 1 and 2; a line only one processor
// touches does not count.
func TestSummarizeSharedLinesAbove32Procs(t *testing.T) {
	b := NewBuilder("wide", 64)
	b.MeasureStart()
	b.Read(0, 0x1000)
	b.Read(32, 0x1008)
	b.Write(5, 0x2000)
	b.Read(37, 0x2000)
	b.Read(1, 0x3000)
	b.Write(2, 0x3000)
	b.Read(63, 0x4000)
	b.Write(63, 0x4000)
	s := b.Build(addrspace.PageSize).Summarize()
	if s.SharedLines != 3 || s.DistinctLines != 4 {
		t.Fatalf("shared %d of %d lines, want 3 of 4", s.SharedLines, s.DistinctLines)
	}
	if s.Reads != 5 || s.Writes != 3 {
		t.Fatalf("counts %+v", s)
	}
}

// validateByAt is Validate as a plain decode of every record through At:
// the reference the op-word scan must agree with.
func validateByAt(t *Trace) error {
	if len(t.Streams) != t.Procs {
		return fmt.Errorf("trace %s: %d streams for %d procs", t.Name, len(t.Streams), t.Procs)
	}
	for p := range t.Streams {
		st := &t.Streams[p]
		measures := 0
		for i := 0; i < st.Len(); i++ {
			r := st.At(i)
			switch r.Kind {
			case Read, Write, Acquire, Release:
				if r.Addr == 0 {
					return fmt.Errorf("trace %s: proc %d ref %d (%s) has zero address", t.Name, p, i, r.Kind)
				}
			case Compute:
				if r.Dur < 0 {
					return fmt.Errorf("trace %s: proc %d ref %d negative compute", t.Name, p, i)
				}
			case MeasureStart:
				measures++
			}
		}
		if measures != 1 {
			return fmt.Errorf("trace %s: proc %d has %d MeasureStart records (want 1)", t.Name, p, measures)
		}
	}
	return nil
}

// TestValidateMatchesAtScan runs Validate and the At-based reference over
// random streams — every tag, zero and non-zero payloads, side records
// of every kind including zero addresses, negative durations and
// denormal MeasureStarts — and requires the same verdict and error text.
func TestValidateMatchesAtScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for iter := 0; iter < 3000; iter++ {
		tr := &Trace{Name: "rand", Procs: 1 + rng.Intn(3)}
		tr.Streams = make([]Stream, tr.Procs)
		for p := range tr.Streams {
			st := &tr.Streams[p]
			for j := rng.Intn(4); j > 0; j-- {
				st.side = append(st.side, Ref{
					Kind: Kind(rng.Intn(int(MeasureStart) + 1)),
					Addr: addrspace.Addr(rng.Intn(2) * 64),
					ID:   uint32(rng.Intn(2)),
					Dur:  engine.Time(rng.Intn(3) - 1),
				})
			}
			for j := rng.Intn(6); j > 0; j-- {
				tag := uint32(rng.Intn(8))
				pl := uint32(rng.Intn(3))
				if tag == uint32(Acquire) || tag == uint32(Release) || tag == opIndirect {
					if len(st.side) == 0 {
						continue
					}
					pl = uint32(rng.Intn(len(st.side)))
				}
				st.ops = append(st.ops, tag<<opKindShift|pl)
			}
		}
		got, want := tr.Validate(), validateByAt(tr)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iteration %d: Validate = %v, At scan = %v", iter, got, want)
		}
		if got != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected == 3000 {
		t.Fatalf("random traces were all accepted or all rejected (%d rejected)", rejected)
	}
}
