package apps

import (
	"reflect"
	"testing"

	"repro/internal/addrspace"
)

func TestChunk(t *testing.T) {
	// Chunks partition [0,n) contiguously.
	for _, n := range []int{0, 1, 15, 16, 17, 100} {
		prev := 0
		total := 0
		for p := 0; p < 16; p++ {
			lo, hi := Chunk(n, 16, p)
			if lo != prev {
				t.Fatalf("n=%d p=%d: lo=%d, want %d", n, p, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d p=%d: hi<lo", n, p)
			}
			total += hi - lo
			prev = hi
		}
		if total != n || prev != n {
			t.Fatalf("n=%d: chunks cover %d", n, total)
		}
	}
}

// Traces are fully deterministic: generating twice yields identical
// streams, and the same bytes as the pinned digests recorded.
func TestDeterministicGeneration(t *testing.T) {
	for _, name := range []string{"fft", "radix", "water-sp", "graph-bfs", "pchase", "alloc-churn"} {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := app.Generate(16)
		b := app.Generate(16)
		if a.WorkingSet != b.WorkingSet {
			t.Fatalf("%s: working sets differ", name)
		}
		for p := range a.Streams {
			if !reflect.DeepEqual(a.Streams[p], b.Streams[p]) {
				t.Fatalf("%s: proc %d streams differ", name, p)
			}
		}
		if d, want := compactDigest(a), pinnedDigests[name+"/16"]; d != want {
			t.Fatalf("%s/16: COMATRC2 digest %s, pinned %s", name, d, want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("radix"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(Registry) != 14 {
		t.Fatalf("Table 1 has 14 applications, registry has %d", len(Registry))
	}
	fig3 := Group(GroupFig3)
	fig4 := Group(GroupFig4)
	if len(fig3) != 8 || len(fig4) != 6 {
		t.Fatalf("paper groups are 8+6, got %d+%d", len(fig3), len(fig4))
	}
	names := map[string]bool{}
	for _, a := range Registry {
		if names[a.Name] {
			t.Fatalf("duplicate name %s", a.Name)
		}
		names[a.Name] = true
		if a.Title == "" || a.Problem == "" || a.PaperProblem == "" || a.Generate == nil {
			t.Fatalf("%s: incomplete registry entry", a.Name)
		}
	}
	if len(SortedNames()) != 14 {
		t.Fatal("SortedNames wrong")
	}
}

// Kernel-level checks at reduced sizes — every kernel self-verifies its
// computation at generation time, so Generate not panicking is the
// assertion; these also exercise non-default parameters.
func TestKernelsAtSmallSizes(t *testing.T) {
	t.Run("fft-small", func(t *testing.T) { FFT(4, 256) })
	t.Run("fft-tiny", func(t *testing.T) { FFT(2, 16) })
	t.Run("radix-small", func(t *testing.T) { Radix(4, 1024, 16) })
	t.Run("lu-small", func(t *testing.T) { LU(4, 32, 8, false) })
	t.Run("lu-contig-small", func(t *testing.T) { LU(4, 32, 8, true) })
	t.Run("ocean-small", func(t *testing.T) { Ocean(4, 32, false) })
	t.Run("ocean-contig-small", func(t *testing.T) { Ocean(4, 32, true) })
	t.Run("water-n2-small", func(t *testing.T) { WaterN2(4, 32, 1) })
	t.Run("water-sp-small", func(t *testing.T) { WaterSp(4, 64, 1) })
	t.Run("cholesky-small", func(t *testing.T) { Cholesky(4, 64) })
	t.Run("barnes-small", func(t *testing.T) { Barnes(4, 64, 1) })
	t.Run("fmm-small", func(t *testing.T) { FMM(4, 128, 2) })
	t.Run("radiosity-small", func(t *testing.T) { Radiosity(4, 256) })
	t.Run("raytrace-small", func(t *testing.T) { Raytrace(4, 128, 32) })
	t.Run("volrend-small", func(t *testing.T) { Volrend(4, 16, 16) })
	t.Run("graph-bfs-small", func(t *testing.T) { GraphBFS(4, 256, 4) })
	t.Run("pchase-sequential", func(t *testing.T) { PChase(4, 128, 1) })
	t.Run("pchase-random", func(t *testing.T) { PChase(4, 128, 128) })
	t.Run("alloc-churn-small", func(t *testing.T) { AllocChurn(4, 64, 32) })
}

func TestKernelBadParamsPanic(t *testing.T) {
	cases := map[string]func(){
		"fft-not-square":  func() { FFT(4, 24) },
		"radix-not-pow2":  func() { Radix(4, 100, 10) },
		"lu-bad-blocks":   func() { LU(4, 30, 8, false) },
		"cholesky-bad-sn": func() { Cholesky(4, 30) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// The generator framework: arrays record references at the right
// addresses and back real data.
func TestGenArrays(t *testing.T) {
	g := NewGen("x", 2)
	f := g.F64("f", 10)
	i := g.I32("i", 20)
	f.Write(0, 3, 2.5)
	if got := f.Read(1, 3); got != 2.5 {
		t.Fatalf("F64 read %v", got)
	}
	i.Write(0, 7, -9)
	if got := i.Read(1, 7); got != -9 {
		t.Fatalf("I32 read %v", got)
	}
	if f.Addr(1)-f.Addr(0) != 8 || i.Addr(1)-i.Addr(0) != 4 {
		t.Fatal("element strides wrong")
	}
	if f.Len() != 10 || i.Len() != 20 {
		t.Fatal("lengths wrong")
	}
	f.Poke(4, 1.5)
	if f.Peek(4) != 1.5 {
		t.Fatal("Poke/Peek broken")
	}
	g.MeasureStart()
	tr := g.Finish()
	s := tr.Summarize()
	if s.Reads != 2 || s.Writes != 2 {
		t.Fatalf("summary %+v", s)
	}
	// Arrays live on separate pages.
	if f.Addr(0)/addrspace.PageSize == i.Addr(0)/addrspace.PageSize {
		t.Fatal("distinct arrays must not share pages")
	}
}

func TestGenLocks(t *testing.T) {
	g := NewGen("x", 2)
	lk := g.NewLock("a")
	lks := g.NewLocks("b", 3)
	ids := map[uint32]bool{lk.id: true}
	for _, l := range lks {
		if ids[l.id] {
			t.Fatal("duplicate lock id")
		}
		ids[l.id] = true
	}
	// Locks sit on distinct lines.
	if addrspace.LineOf(lks[0].addr) == addrspace.LineOf(lks[1].addr) {
		t.Fatal("locks share a line")
	}
	g.Acquire(0, lk)
	g.Release(0, lk)
	g.MeasureStart()
	tr := g.Finish()
	if tr.Summarize().Acquires != 1 {
		t.Fatal("acquire not recorded")
	}
}

func TestInstrNS(t *testing.T) {
	if InstrNS(4) <= 0 {
		t.Fatal("InstrNS must be positive")
	}
}
