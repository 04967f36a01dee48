package machine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// scanPick is the O(P) selection the tournament tree replaces: the lowest
// id among the queued processors with the minimum clock.
func scanPick(procs []*proc, queued []bool) (int32, bool) {
	best := -1
	for i, p := range procs {
		if queued[i] && (best < 0 || p.t < procs[best].t) {
			best = i
		}
	}
	return int32(best), best >= 0
}

// TestProcTreeMatchesScan drives the tree and the reference scan through
// the same seeded streams of clock moves, enqueues, re-keys and removals,
// and requires the same pick after every operation. Clocks are drawn
// from a narrow range, so ties at the minimum are frequent, and removed
// processors are re-enqueued later, as lock hand-offs and barrier
// releases do.
func TestProcTreeMatchesScan(t *testing.T) {
	for _, np := range []int{1, 3, 8, 16, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(np)))
			procs := make([]*proc, np)
			for i := range procs {
				procs[i] = &proc{id: i}
			}
			var tree procTree
			tree.init(procs)
			queued := make([]bool, np)
			for step := 0; step < 20000; step++ {
				id := int32(rng.Intn(np))
				switch r := rng.Intn(10); {
				case r < 5: // the clock moves, then the processor is (re-)keyed
					procs[id].t += engine.Time(rng.Intn(3))
					if rng.Intn(8) == 0 {
						procs[id].t = engine.Time(rng.Intn(4)) // rewind into a tie
					}
					tree.fix(id)
					queued[id] = true
				case r < 7: // a re-key with the clock unchanged
					tree.fix(id)
					queued[id] = true
				default: // block or finish
					tree.remove(id)
					queued[id] = false
				}
				got, gotOK := tree.peek()
				want, wantOK := scanPick(procs, queued)
				if gotOK != wantOK || (wantOK && got != want) {
					t.Fatalf("P=%d seed %d step %d: tree picks (%d, %v), scan (%d, %v)",
						np, seed, step, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// A clock beyond the tree's key range — reachable only through a trace's
// compute durations — stops the run with an error instead of silently
// mis-ordering the schedule.
func TestRunRejectsClockBeyondKeyRange(t *testing.T) {
	b := trace.NewBuilder("huge-compute", 4)
	b.MeasureStart()
	b.Compute(2, 1<<62) // the limit is 2^62 ns at 4 processors
	b.Barrier()
	m, err := New(DefaultParams(4, 1, 4096, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(b.Build(1 << 16)); err == nil || !strings.Contains(err.Error(), "beyond the simulator's range") {
		t.Fatalf("err = %v, want the clock-range error", err)
	}
}
