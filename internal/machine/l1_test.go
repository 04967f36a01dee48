package machine

import (
	"math/rand"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/cache"
)

// TestL1MatchesOneWayCache holds the direct-mapped L1 array against the
// 1-way cache.Cache it replaced, under seeded streams of probes, fills
// and invalidations: every probe, every displaced victim and, at the end
// of each stream, the full residency must agree. The line universe spans
// a few times the set count and includes line 0, whose stored tag is 1.
func TestL1MatchesOneWayCache(t *testing.T) {
	for _, sets := range []int{1, 7, 63, 65} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(sets)))
			l1 := newL1Cache(sets)
			ref := cache.New(cache.Config{Name: "ref", Sets: sets, Ways: 1})
			for step := 0; step < 20000; step++ {
				l := addrspace.Line(rng.Intn(4 * sets))
				switch r := rng.Intn(10); {
				case r < 4:
					_, want := ref.Lookup(l)
					if got := l1.has(l); got != want {
						t.Fatalf("sets %d seed %d step %d: has(%d) = %v, want %v", sets, seed, step, l, got, want)
					}
				case r < 8:
					victim, evicted := l1.insert(l)
					want, wantEvicted := ref.Insert(l, cacheValid)
					if evicted != wantEvicted || (evicted && victim != want.Line) {
						t.Fatalf("sets %d seed %d step %d: insert(%d) displaced (%d, %v), want (%d, %v)",
							sets, seed, step, l, victim, evicted, want.Line, wantEvicted)
					}
				default:
					l1.invalidate(l)
					ref.Invalidate(l)
				}
			}
			resident := map[addrspace.Line]bool{}
			for _, tag := range l1.tags {
				if tag != 0 {
					resident[tag-1] = true
				}
			}
			n := 0
			ref.ForEach(func(e cache.Entry) {
				n++
				if !resident[e.Line] {
					t.Errorf("sets %d seed %d: line %d resident in the reference only", sets, seed, e.Line)
				}
			})
			if n != len(resident) {
				t.Errorf("sets %d seed %d: %d lines resident, reference %d", sets, seed, len(resident), n)
			}
		}
	}
}
