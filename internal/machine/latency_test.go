package machine

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

func TestLatencyHistBuckets(t *testing.T) {
	var h LatencyHist
	h.add(0)
	h.add(32)
	h.add(33)
	h.add(148)
	h.add(332)
	h.add(1_000_000)
	if h.Total() != 6 {
		t.Fatalf("total %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 || h.Counts[3] != 1 {
		t.Fatalf("counts %+v", h.Counts)
	}
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatal("overflow bucket missed")
	}
	if len(h.Buckets()) == 0 || h.Buckets()[0] != 0 {
		t.Fatal("bucket bounds wrong")
	}
}

func TestLatencyQuantile(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 90; i++ {
		h.add(0)
	}
	for i := 0; i < 10; i++ {
		h.add(300)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median %d, want 0", q)
	}
	if q := h.Quantile(0.95); q != 332 {
		t.Fatalf("p95 %d, want 332-bucket", q)
	}
	var empty LatencyHist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if empty.String() != "no reads" {
		t.Fatal("empty string")
	}
}

func TestLatencyRecordedInResult(t *testing.T) {
	res := runTrace(t, tinyParams(2, 1), func(b *trace.Builder) {
		b.Write(0, lineA)
		b.Barrier()
		b.MeasureStart()
		b.Read(1, lineA) // remote: 332 ns
		b.Read(1, lineA) // L1 hit: 0 ns
	})
	h := &res.ReadLatency
	if h.Total() != 2 {
		t.Fatalf("recorded %d reads, want 2", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Fatalf("counts %+v: want one 0 ns and one 332 ns read", h.Counts)
	}
	if !strings.Contains(h.String(), "<=0ns") {
		t.Fatalf("string %q", h.String())
	}
}

var latSink LatencyHist

// BenchmarkLatencyHistAdd times one bucket update, which every measured
// read pays.
func BenchmarkLatencyHistAdd(b *testing.B) {
	var h LatencyHist
	for i := 0; i < b.N; i++ {
		h.add(engine.Time(i & 255))
	}
	latSink = h
}
