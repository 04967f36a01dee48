package apps

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

var generated *trace.Trace

// BenchmarkGenerate times trace generation alone — one kernel run through
// trace.Builder, including the final Validate — for every registry trace
// at the paper's 16 processors. alloc-B/trace-B divides the bytes
// allocated per generation by the trace's COMATRC2 size, which depends
// only on the records, so the ratio isolates how much the kernel and the
// builder allocate to produce each byte of final trace.
//
//	go test -run '^$' -bench BenchmarkGenerate -benchmem ./internal/apps/
func BenchmarkGenerate(b *testing.B) {
	for _, a := range All() {
		a := a
		b.Run(a.Name, func(b *testing.B) {
			traceBytes := len(a.Generate(16).EncodeCompact())
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				generated = a.Generate(16)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			b.ReportMetric(alloc/float64(traceBytes), "alloc-B/trace-B")
		})
	}
}
