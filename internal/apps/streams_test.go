package apps

import (
	"testing"

	"repro/internal/trace"
)

// Every generator's compact stream must materialize to the exact record
// sequence a plain []Ref representation would hold, and re-packing that
// sequence must reproduce the stream — the compact encoding is lossless
// over the full production workload set, including the denormal records
// that spill to the side table (locks, wide payloads).
func TestCompactStreamsRoundTripAllApps(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			tr := a.Generate(8)
			refs := make([][]trace.Ref, len(tr.Streams))
			for p := range tr.Streams {
				refs[p] = tr.Streams[p].Refs()
				if len(refs[p]) != tr.Streams[p].Len() {
					t.Fatalf("proc %d: Refs() returned %d records, Len() says %d",
						p, len(refs[p]), tr.Streams[p].Len())
				}
			}
			back := trace.FromRefs(tr.Name, tr.WorkingSet, refs)
			if back.Procs != tr.Procs || back.WorkingSet != tr.WorkingSet {
				t.Fatalf("header drifted: %+v vs %+v", back, tr)
			}
			for p := range tr.Streams {
				orig, re := &tr.Streams[p], &back.Streams[p]
				if re.Len() != orig.Len() {
					t.Fatalf("proc %d: repacked %d records, want %d", p, re.Len(), orig.Len())
				}
				for i := 0; i < orig.Len(); i++ {
					if orig.At(i) != re.At(i) || orig.At(i) != refs[p][i] {
						t.Fatalf("proc %d record %d: orig %+v, repacked %+v, refs %+v",
							p, i, orig.At(i), re.At(i), refs[p][i])
					}
					if orig.Kind(i) != refs[p][i].Kind {
						t.Fatalf("proc %d record %d: Kind() %v, want %v",
							p, i, orig.Kind(i), refs[p][i].Kind)
					}
				}
			}
			// Summaries see the identical record sequence.
			if tr.Summarize() != back.Summarize() {
				t.Fatalf("summaries diverge: %+v vs %+v", tr.Summarize(), back.Summarize())
			}
		})
	}
}

// The compact form earns its keep: across the whole registry it must use
// well under half the memory of the boxed 32-byte []Ref representation
// (reads/writes/computes pack into 4 bytes; only locks spill).
func TestCompactStreamsActuallyCompact(t *testing.T) {
	var compact, boxed uint64
	for _, a := range All() {
		tr := a.Generate(8)
		compact += uint64(tr.MemBytes())
		for p := range tr.Streams {
			boxed += 32 * uint64(tr.Streams[p].Len())
		}
	}
	if compact*2 >= boxed {
		t.Fatalf("compact streams use %d bytes vs %d boxed — under 2x saving", compact, boxed)
	}
	t.Logf("registry traces: %d KiB compact vs %d KiB boxed (%.1fx)",
		compact/1024, boxed/1024, float64(boxed)/float64(compact))
}
