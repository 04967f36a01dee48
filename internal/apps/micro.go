package apps

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// Micro-workloads: four canonical sharing patterns (after the access
// classifications in the clustering literature the paper builds on).
// They are not part of Table 1 but serve protocol validation, examples
// and quick experiments where an isolated pattern is clearer than a full
// application.

// MicroNames lists the micro-workload identifiers accepted by Micro.
func MicroNames() []string {
	return []string{"micro-private", "micro-readshared", "micro-migratory", "micro-producer"}
}

// Generate builds the named workload's trace at procs processors: a
// micro-* name through Micro(name, procs, 64, 8), any other name through
// its registry or extras entry (ByName). It is the one name resolver of
// the experiment runner, cmd/comasim and the benchmarks.
func Generate(name string, procs int) (*trace.Trace, error) {
	if slices.Contains(MicroNames(), name) {
		return Micro(name, procs, 64, 8), nil
	}
	a, err := ByName(name)
	if err != nil {
		return nil, fmt.Errorf("apps: unknown application %q (known: %v)", name, append(AllNames(), MicroNames()...))
	}
	return a.Generate(procs), nil
}

// Micro generates the named micro-workload.
func Micro(name string, procs, lines, rounds int) *trace.Trace {
	switch name {
	case "micro-private":
		return MicroPrivate(procs, lines, rounds)
	case "micro-readshared":
		return MicroReadShared(procs, lines, rounds)
	case "micro-migratory":
		return MicroMigratory(procs, lines, rounds)
	case "micro-producer":
		return MicroProducerConsumer(procs, lines, rounds)
	default:
		panic(fmt.Sprintf("apps: unknown micro-workload %q", name))
	}
}

// MicroPrivate: each processor works exclusively on its own data — no
// communication; clustering can only add contention.
func MicroPrivate(procs, lines, rounds int) *trace.Trace {
	g := NewGen("micro-private", procs)
	words := lines * 8
	arrs := make([]*F64, procs)
	for p := range arrs {
		arrs[p] = g.F64(fmt.Sprintf("private-%d", p), words)
	}
	for p := 0; p < procs; p++ {
		for i := 0; i < words; i++ {
			arrs[p].Write(p, i, float64(i))
		}
	}
	g.Barrier()
	g.MeasureStart()
	for r := 0; r < rounds; r++ {
		for p := 0; p < procs; p++ {
			var sum float64
			for i := 0; i < words; i++ {
				sum += arrs[p].Read(p, i)
				g.Compute(p, 3)
			}
			arrs[p].Write(p, 0, sum)
		}
		g.Barrier()
	}
	return g.Finish()
}

// MicroReadShared: one region written once, then read by everyone every
// round — maximal replication benefit, the pattern squeezed hardest by
// high memory pressure.
func MicroReadShared(procs, lines, rounds int) *trace.Trace {
	g := NewGen("micro-readshared", procs)
	words := lines * 8
	shared := g.F64("shared", words)
	for i := 0; i < words; i++ {
		shared.Write(0, i, float64(i))
	}
	g.Barrier()
	g.MeasureStart()
	for r := 0; r < rounds; r++ {
		for p := 0; p < procs; p++ {
			var sum float64
			for i := 0; i < words; i++ {
				sum += shared.Read(p, i)
				g.Compute(p, 3)
			}
			_ = sum
		}
		g.Barrier()
	}
	return g.Finish()
}

// MicroMigratory: a lock-protected record bounces between processors —
// the lock and its data migrate together; clustering keeps the bounce
// inside a node part of the time.
func MicroMigratory(procs, lines, rounds int) *trace.Trace {
	g := NewGen("micro-migratory", procs)
	words := lines * 8
	rec := g.F64("record", words)
	lk := g.NewLock("record")
	for i := 0; i < words; i++ {
		rec.Write(0, i, 0)
	}
	g.Barrier()
	g.MeasureStart()
	for r := 0; r < rounds; r++ {
		for p := 0; p < procs; p++ {
			g.Acquire(p, lk)
			for i := 0; i < words; i++ {
				rec.Write(p, i, rec.Read(p, i)+1)
				g.Compute(p, 4)
			}
			g.Release(p, lk)
		}
	}
	g.Barrier()
	return g.Finish()
}

// MicroProducerConsumer: processor 2k writes a buffer that processor 2k+1
// reads each round. With sequential cluster assignment, producer and
// consumer share a node for clustering degree >= 2 — the best case for
// shared attraction memories.
func MicroProducerConsumer(procs, lines, rounds int) *trace.Trace {
	g := NewGen("micro-producer", procs)
	words := lines * 8
	bufs := make([]*F64, procs/2)
	for i := range bufs {
		bufs[i] = g.F64(fmt.Sprintf("buffer-%d", i), words)
	}
	g.Barrier()
	g.MeasureStart()
	for r := 0; r < rounds; r++ {
		for k := 0; k < procs/2; k++ {
			prod := 2 * k
			for i := 0; i < words; i++ {
				bufs[k].Write(prod, i, float64(r*i))
				g.Compute(prod, 3)
			}
		}
		g.Barrier()
		for k := 0; k < procs/2; k++ {
			cons := 2*k + 1
			var sum float64
			for i := 0; i < words; i++ {
				sum += bufs[k].Read(cons, i)
				g.Compute(cons, 3)
			}
			_ = sum
		}
		g.Barrier()
	}
	return g.Finish()
}
