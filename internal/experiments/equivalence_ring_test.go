package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
)

// Cross-topology equivalence harness: a ring of one cluster is a single
// snooping bus with an unused ring attached, and the ring fabric mirrors
// the bus fabric's phase counts and attributions exactly, so the two
// topologies must agree on every workload — not just on reference counts
// and miss classification (the correctness contract) but, because the
// mirroring is exact, on execution time too. Timing equivalence beyond
// the 1-cluster case does NOT hold (multi-cluster rings pay hop latency
// and split bus arbitration); DESIGN.md §9 documents the divergence.

// busRingPair returns the bus configuration and its 1-cluster,
// zero-link-latency ring twin.
func busRingPair(ppn int, mp config.Pressure) (config.Machine, config.Machine) {
	bus := config.Baseline(ppn, mp)
	ring := bus
	ring.Topology = "ring"
	ring.Clusters = 1
	ring.LinkLatencyNs = -1 // explicit zero
	return bus, ring
}

// All 14 workloads, simulated at the paper's hardest pressure point,
// produce identical reference counts, miss classifications and protocol
// counter totals on the bus and on the degenerate ring. The runs go one
// at a time, so the test runs in parallel with the other one-worker
// tests.
func TestRingBusEquivalenceAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload matrix in -short mode")
	}
	t.Parallel()
	r := NewRunner()
	r.Procs = 8
	busCfg, ringCfg := busRingPair(2, config.MP87)
	for _, app := range Apps() {
		busRes, err := r.Run(app, busCfg)
		if err != nil {
			t.Fatal(err)
		}
		ringRes, err := r.Run(app, ringCfg)
		if err != nil {
			t.Fatal(err)
		}
		// Protocol counters cover the full miss classification: reads,
		// writes, read/write misses, upgrades, updates, replacement
		// outcomes and the 4x4 transition matrix.
		if busRes.Protocol != ringRes.Protocol {
			t.Errorf("%s: protocol counters diverge\nbus:  %+v\nring: %+v",
				app, busRes.Protocol, ringRes.Protocol)
		}
		if busRes.Reads != ringRes.Reads || busRes.ReadNodeMisses != ringRes.ReadNodeMisses {
			t.Errorf("%s: reference counts diverge: bus (reads=%d nodeMisses=%d), ring (reads=%d nodeMisses=%d)",
				app, busRes.Reads, busRes.ReadNodeMisses, ringRes.Reads, ringRes.ReadNodeMisses)
		}
		if busRes.RNMr() != ringRes.RNMr() {
			t.Errorf("%s: RNMr %v (bus) != %v (ring)", app, busRes.RNMr(), ringRes.RNMr())
		}
		if busRes.ExecTime != ringRes.ExecTime {
			t.Errorf("%s: exec %v (bus) != %v (ring)", app, busRes.ExecTime, ringRes.ExecTime)
		}
	}
}

// ring64Cfgs is the 64-processor ring matrix the determinism test runs:
// 16 clusters of 2 nodes, at a moderate and at the hardest pressure.
func ring64Cfgs() []config.Machine {
	var cfgs []config.Machine
	for _, mp := range []config.Pressure{config.MP50, config.MP87} {
		c := config.Baseline(2, mp)
		c.Procs = 64
		c.ScalePressure = true
		c.Topology = "ring"
		c.Clusters = 16
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// Worker-pool invariance on the hierarchical topology: the full Result
// set of a 64-processor ring matrix is deep-equal between a sequential
// runner and an 8-worker runner. The ring fabric claims many resources
// (cluster buses, links, directories) per transaction, so any
// order-dependence in its accounting would surface here. Like the other
// one-worker tests, it runs in parallel.
func TestRing64JobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("64-processor matrix in -short mode")
	}
	t.Parallel()
	apps := []string{"fft", "radix", "water-n2"}
	cfgs := ring64Cfgs()
	run := func(jobs int) []InspectRow {
		r := NewRunner()
		r.Procs = 64
		r.Jobs = jobs
		rows, err := r.Inspect(apps, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("row %d (%s %s) differs between -jobs 1 and -jobs 8",
					i, seq[i].App, seq[i].Label)
			}
		}
		t.Fatal("64-processor ring matrix is jobs-dependent")
	}
}

// The scaled study's golden uses reduced machine sizes (16 and 32
// processors) so the test stays tractable while exercising the same
// code path — three clustering degrees, five pressures, ring geometry
// and scaled pressure per size — as the full 64/128 run.
func TestGoldenFigure2Scaled(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled matrix in -short mode")
	}
	r := NewRunner()
	r.Procs = 8 // unused by the spec'd sizes; kept small for safety
	f, err := r.Figure2Scaled(ScaledSpec{Sizes: []int{16, 32}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/figure2scaled.golden", sb.String())
}
