package machine

import (
	"math/rand"
	"testing"

	"repro/internal/addrspace"
)

// TestSteadyStateZeroAlloc pins the per-reference simulation path —
// private-cache lookups, the COMA protocol with its open-addressed
// directory, the write-buffer ring and resource claims — at zero heap
// allocations per reference once the machine is warm. The observability
// sink is disabled, as in every measured run; the working set fits the
// attraction memories, so the directory never grows mid-measurement.
//
// The companion CI run executes this under -race (like
// TestDisabledSinkZeroAlloc), which both checks the claim survives the
// race detector's instrumentation accounting and keeps it from silently
// rotting.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := steadyStateAllocs(m); got != 0 {
		t.Fatalf("steady-state references allocate %.0f times in %d, want 0", got, steadyRefs)
	}
}

// TestSamplingOffZeroAlloc pins the sampling feature's disabled path: a
// machine that never called EnableSampling takes only the nil-sampler
// branch checks in doRead/doWrite/step, which must not allocate — the
// windowed-sampler companion to TestDisabledSinkZeroAlloc (sinks).
func TestSamplingOffZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Force the sink/sampler rewiring path with everything disabled, the
	// configuration every measured run uses.
	m.SetSink(nil)
	if m.sampler != nil {
		t.Fatal("sampler unexpectedly enabled")
	}
	if got := steadyStateAllocs(m); got != 0 {
		t.Fatalf("sampling-off references allocate %.0f times in %d, want 0", got, steadyRefs)
	}
}

// TestFastForwardZeroAlloc pins the fast-forward reference path — the
// same doRead/doWrite walk under freeflow, with pass-through claims and
// the calibrated clock advance — at zero heap allocations per reference.
// Fast-forward exists to be cheap; an allocation per reference would
// cost more than the detailed arbitration it skips. Window bookkeeping
// (ffSync open/close) is excluded: it runs O(resources) work twice per
// sampling period, not per reference, and its sample append is
// amortized by the slice cap.
func TestFastForwardZeroAlloc(t *testing.T) {
	p := DefaultParams(8, 2, 32*1024, 256*1024)
	p.Fidelity = DefaultFidelity()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.freeflow = true // as ffBurst drives the references
	if got := steadyStateAllocs(m); got != 0 {
		t.Fatalf("fast-forward references allocate %.0f times in %d, want 0", got, steadyRefs)
	}
}

// steadyRefs is the length of steadyStateAllocs' measured loop.
const steadyRefs = 5000

// steadyStateAllocs warms the machine's caches, directory and attraction
// memories, then counts heap allocations over steadyRefs references of a
// precomputed sequence (the generator itself must not count against the
// machine), through loopAllocs.
func steadyStateAllocs(m *Machine) float64 {
	// Measure from the start (internal switch; no trace is involved).
	m.beginMeasure(0)

	// A fixed region well under AM capacity: 4 nodes x 256KiB/proc x 2
	// procs holds thousands of lines; 512 lines leave generous headroom,
	// while overflowing the 32KiB SLCs so the protocol path stays hot.
	const lines = 512
	rng := rand.New(rand.NewSource(3))
	addr := func() addrspace.Addr {
		return addrspace.Addr((rng.Intn(lines) + 16) * addrspace.LineSize)
	}
	// Warm: populate caches, directory and attraction memories.
	for i := 0; i < 8*lines; i++ {
		q := m.procs[rng.Intn(len(m.procs))]
		if i%3 == 0 {
			m.doWrite(q, addr())
		} else {
			m.doRead(q, addr())
		}
	}
	// Steady state: a precomputed reference sequence.
	type ref struct {
		proc  int
		addr  addrspace.Addr
		write bool
	}
	seq := make([]ref, 1024)
	for i := range seq {
		seq[i] = ref{proc: rng.Intn(len(m.procs)), addr: addr(), write: rng.Intn(3) == 0}
	}
	return loopAllocs(func() {
		for i := 0; i < steadyRefs; i++ {
			r := seq[i%len(seq)]
			q := m.procs[r.proc]
			if r.write {
				m.doWrite(q, r.addr)
			} else {
				m.doRead(q, r.addr)
			}
		}
	})
}

// loopAllocs counts heap allocations over whole runs of loop and returns
// the fewest of up to three runs. One run per step would let
// testing.AllocsPerRun's integer division read 0 for a path that
// allocates on most steps but not all. A rare allocation by the runtime
// itself, seen under CPU contention, can land in one run but not in
// all three, while an allocation on the measured path lands in every run.
func loopAllocs(loop func()) float64 {
	n := testing.AllocsPerRun(1, loop)
	for i := 1; i < 3 && n > 0; i++ {
		n = min(n, testing.AllocsPerRun(1, loop))
	}
	return n
}
