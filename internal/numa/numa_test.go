package numa

import (
	"testing"

	"repro/internal/addrspace"
	"repro/internal/apps"
	"repro/internal/coma"
	"repro/internal/config"
	"repro/internal/machine"
	"repro/internal/trace"
)

func dir(nodes int) *Directory { return New(nodes, nil, nil) }

func TestFirstTouchHome(t *testing.T) {
	d := dir(4)
	eff := d.Read(2, 10)
	if !eff.Cold || !eff.Hit {
		t.Fatalf("first touch %+v", eff)
	}
	if d.Home(10) != 2 {
		t.Fatalf("home = %d", d.Home(10))
	}
	if d.Home(99) != -1 {
		t.Fatal("untouched line must have no home")
	}
}

func TestLocalReadHits(t *testing.T) {
	d := dir(4)
	d.Read(1, 5)
	eff := d.Read(1, 5)
	if !eff.Hit || len(eff.Txns) != 0 {
		t.Fatalf("home read must be local: %+v", eff)
	}
}

func TestRemoteReadNeverInstalls(t *testing.T) {
	d := dir(4)
	d.Write(0, 5)
	for i := 0; i < 3; i++ {
		eff := d.Read(2, 5)
		if eff.Hit {
			t.Fatalf("iteration %d: remote read hit locally — NUMA must not attract data", i)
		}
		if !eff.NoLocalFill {
			t.Fatal("remote read must not install locally")
		}
	}
	if d.Stats().ReadMisses != 3 {
		t.Fatalf("misses = %d, want 3", d.Stats().ReadMisses)
	}
}

func TestDirtyForwarding(t *testing.T) {
	downs := 0
	d := New(4, nil, func(n int, l addrspace.Line) { downs++ })
	d.Write(0, 5) // home and dirty at node 0
	d.Write(1, 5) // node 1 fetches exclusive
	eff := d.Read(2, 5)
	if len(eff.Txns) != 1 || eff.Txns[0].Remote != 1 {
		t.Fatalf("dirty data must come from node 1: %+v", eff.Txns)
	}
	if downs != 1 {
		t.Fatalf("downgrades = %d", downs)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	purges := map[int]int{}
	d := New(4, func(n int, l addrspace.Line, e bool) { purges[n]++ }, nil)
	d.Write(0, 5)
	d.Read(1, 5)
	d.Read(2, 5)
	eff := d.Write(3, 5)
	if purges[0]+purges[1]+purges[2] != 3 {
		t.Fatalf("purges %+v", purges)
	}
	if eff.Hit {
		t.Fatal("remote write miss cannot be a hit")
	}
}

// Sharers on nodes 32..63 must be recorded — and therefore invalidated —
// like any other: the sharer mask spans the machine's 64-node limit.
func TestWriteInvalidatesHighNodeSharers(t *testing.T) {
	purged := map[int]bool{}
	d := New(64, func(n int, l addrspace.Line, e bool) { purged[n] = true }, nil)
	d.Read(0, 5)
	d.Read(40, 5)
	d.Read(63, 5)
	d.Write(1, 5)
	for _, n := range []int{0, 40, 63} {
		if !purged[n] {
			t.Errorf("node %d's copy was not invalidated (purged %v)", n, purged)
		}
	}
	if len(purged) != 3 {
		t.Errorf("purged %v, want exactly nodes 0, 40 and 63", purged)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeFromSharer(t *testing.T) {
	d := dir(4)
	d.Write(0, 5)
	d.Read(1, 5) // node 1 now shares
	eff := d.Write(1, 5)
	if len(eff.Txns) != 1 || eff.Txns[0].Data {
		t.Fatalf("sharer write must be an address-only upgrade: %+v", eff.Txns)
	}
	if d.Stats().Upgrades != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestWriteBack(t *testing.T) {
	d := dir(4)
	d.Write(0, 5) // home 0
	d.Write(1, 5) // dirty at node 1
	eff := d.WriteBack(1, 5)
	if eff.Hit || len(eff.Txns) != 1 || eff.Txns[0].Remote != 0 {
		t.Fatalf("write-back must go to home 0: %+v", eff)
	}
	if local := d.WriteBack(0, 99); !local.Hit {
		t.Fatal("write-back of untracked line is local")
	}
}

func TestResetStats(t *testing.T) {
	d := dir(2)
	d.Write(0, 1)
	d.ResetStats()
	if d.Stats() != (coma.Stats{}) {
		t.Fatal("stats not cleared")
	}
}

// End-to-end ablation: on a read-heavy migratory workload the COMA
// machine attracts data and beats the NUMA baseline.
func TestCOMABeatsNUMAOnMigratoryReads(t *testing.T) {
	const procs = 4
	b := trace.NewBuilder("migratory", procs)
	base := addrspace.Addr(0x10000)
	// Proc 0 initializes a 32 KB region.
	for i := 0; i < 512; i++ {
		b.Write(0, base+addrspace.Addr(i*64))
	}
	b.Barrier()
	b.MeasureStart()
	// Procs 1..3 then read it repeatedly: with COMA the data migrates to
	// their attraction memories after the first sweep; with NUMA every
	// SLC miss goes back to node 0.
	for round := 0; round < 4; round++ {
		for p := 1; p < procs; p++ {
			for i := 0; i < 512; i++ {
				b.Read(p, base+addrspace.Addr(i*64))
			}
		}
		b.Barrier()
	}
	tr := b.Build(1 << 20)

	params := machine.DefaultParams(procs, 1, 2048, 64*1024)
	params.L1Bytes = 512
	cm, err := machine.New(params)
	if err != nil {
		t.Fatal(err)
	}
	comaRes, err := cm.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := NewMachine(params)
	if err != nil {
		t.Fatal(err)
	}
	numaRes, err := nm.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if comaRes.ExecTime >= numaRes.ExecTime {
		t.Fatalf("COMA %v should beat NUMA %v on migratory reads",
			comaRes.ExecTime, numaRes.ExecTime)
	}
	if comaRes.ReadNodeMisses >= numaRes.ReadNodeMisses {
		t.Fatalf("COMA node misses %d should undercut NUMA's %d",
			comaRes.ReadNodeMisses, numaRes.ReadNodeMisses)
	}
}

// Smoke test at the paper's sizing: the baseline machine runs a generated
// 16-processor workload from the configuration methodology's parameters,
// and, having no attraction memory, never moves replacement traffic.
func TestBaselineMachineRunsWorkload(t *testing.T) {
	tr := apps.Micro("micro-readshared", 16, 64, 8)
	m, err := NewMachine(config.Baseline(1, config.MP50).Params(tr.WorkingSet))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 || res.ExecTime == 0 {
		t.Fatal("degenerate NUMA result")
	}
	if res.BusOccupancy[2] != 0 {
		t.Fatal("NUMA has no replacement traffic class")
	}
	if _, err := NewMachine(machine.Params{}); err == nil {
		t.Fatal("zero parameters must be rejected")
	}
}
