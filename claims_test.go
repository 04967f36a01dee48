package repro_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/machine"
)

// pressureSweep is one clustering degree at each of the paper's memory
// pressures, in ascending order.
func pressureSweep(ppn int) []config.Machine {
	cfgs := make([]config.Machine, len(config.Pressures))
	for i, mp := range config.Pressures {
		cfgs[i] = config.Baseline(ppn, mp)
	}
	return cfgs
}

// noReplacements holds when no run injected or dropped a line.
func noReplacements(rs []*machine.Result) error {
	for _, r := range rs {
		if r.Protocol.Injects != 0 || r.Protocol.SharedDrops != 0 {
			return fmt.Errorf("replacements: %+v", r.Protocol)
		}
	}
	return nil
}

// TestPaperClaims checks the paper's qualitative claims end to end on the
// 16-processor machine: each row simulates one workload under a list of
// configurations (un-memoized, through Runner.RunTrace) and checks the
// direction the paper reports across the results.
func TestPaperClaims(t *testing.T) {
	base1, base4 := config.Baseline(1, config.MP6), config.Baseline(4, config.MP6)
	dram2 := config.Baseline(4, config.MP50)
	dram2.DRAMBandwidth = 2
	for _, c := range []struct {
		name  string
		app   string
		cfgs  []config.Machine
		check func(rs []*machine.Result) error
	}{
		// Section 4.1: clustering cuts the read node misses and the bus
		// traffic, and at 6% MP nothing is ever replaced.
		{"ClusteringReducesMissesAndTraffic", "fft", []config.Machine{base1, base4}, func(rs []*machine.Result) error {
			p1, p4 := rs[0], rs[1]
			switch {
			case p4.RNMr() >= p1.RNMr() || p4.ReadNodeMisses >= p1.ReadNodeMisses:
				return fmt.Errorf("clustering must reduce node misses: %d (RNMr %v) vs %d (RNMr %v)",
					p4.ReadNodeMisses, p4.RNMr(), p1.ReadNodeMisses, p1.RNMr())
			case p4.BusTotal() >= p1.BusTotal():
				return fmt.Errorf("clustering must reduce traffic: %v vs %v", p4.BusTotal(), p1.BusTotal())
			case p1.Protocol.Injects != 0:
				return fmt.Errorf("%d injections at 6%% MP", p1.Protocol.Injects)
			}
			return nil
		}},
		// Section 4.2: replacement traffic appears once the pressure
		// leaves no replication headroom.
		{"PressureCreatesReplacementTraffic", "fft", []config.Machine{base1, config.Baseline(1, config.MP87)}, func(rs []*machine.Result) error {
			low, high := rs[0], rs[1]
			switch {
			case low.BusOccupancy[2] != 0:
				return fmt.Errorf("no replacements expected at 6%% MP, got %v", low.BusOccupancy[2])
			case high.BusOccupancy[2] == 0:
				return fmt.Errorf("87%% MP must produce replacement traffic")
			case high.BusTotal() <= low.BusTotal():
				return fmt.Errorf("traffic must grow with memory pressure: %v vs %v", high.BusTotal(), low.BusTotal())
			}
			return nil
		}},
		// At 6% MP the attraction memories are effectively infinite: every
		// node miss is a coherence or cold miss, never a capacity one.
		{"InfiniteCacheAtLowPressure/fft", "fft", []config.Machine{base1}, noReplacements},
		{"InfiniteCacheAtLowPressure/radix", "radix", []config.Machine{base1}, noReplacements},
		{"InfiniteCacheAtLowPressure/water-n2", "water-n2", []config.Machine{base1}, noReplacements},
		{"TrafficGrowsWithPressure", "radix", pressureSweep(1), func(rs []*machine.Result) error {
			for i := 1; i < len(rs); i++ {
				if rs[i].BusTotal() < rs[i-1].BusTotal() {
					return fmt.Errorf("traffic falls from %v to %v at %s MP",
						rs[i-1].BusTotal(), rs[i].BusTotal(), config.Pressures[i].Label)
				}
			}
			return nil
		}},
		{"NoForcedDropsAtStudiedPressures", "lu-c", pressureSweep(1), func(rs []*machine.Result) error {
			for i, r := range rs {
				if r.Protocol.ForcedDrops != 0 {
					return fmt.Errorf("forced drops at %s MP", config.Pressures[i].Label)
				}
			}
			return nil
		}},
		// Identical configuration and trace give identical results.
		{"EndToEndDeterminism", "radix", []config.Machine{config.Baseline(4, config.MP81), config.Baseline(4, config.MP81)}, func(rs []*machine.Result) error {
			if !reflect.DeepEqual(rs[0], rs[1]) {
				return fmt.Errorf("pipeline is nondeterministic:\n%+v\n%+v", rs[0], rs[1])
			}
			return nil
		}},
		// Section 4.3: AM bandwidth is the key requirement for clustering,
		// so doubling it speeds up the clustered machine.
		{"DRAMBandwidthHelpsClustering", "radix", []config.Machine{config.Baseline(4, config.MP50), dram2}, func(rs []*machine.Result) error {
			if rs[1].ExecTime >= rs[0].ExecTime {
				return fmt.Errorf("2x DRAM bandwidth must speed up the clustered machine: %v vs %v", rs[1].ExecTime, rs[0].ExecTime)
			}
			return nil
		}},
		// The canonical sharing patterns behave as Section 2.1 predicts.
		// Producer/consumer pairs share a node at 2-way clustering, so the
		// consumer's node misses all but vanish.
		{"MicroProducerConsumerClustering", "micro-producer", []config.Machine{base1, config.Baseline(2, config.MP6)}, func(rs []*machine.Result) error {
			if rs[1].RNMr() > 0.2*rs[0].RNMr() {
				return fmt.Errorf("RNMr should collapse under 2-way clustering: %v vs %v", rs[1].RNMr(), rs[0].RNMr())
			}
			return nil
		}},
		// Private data never misses the node; clustering only adds
		// contention.
		{"MicroPrivateClusteringNeutral", "micro-private", []config.Machine{base1, base4}, func(rs []*machine.Result) error {
			switch {
			case rs[0].ReadNodeMisses != 0 || rs[1].ReadNodeMisses != 0:
				return fmt.Errorf("private data should never miss the node: %d / %d", rs[0].ReadNodeMisses, rs[1].ReadNodeMisses)
			case rs[1].ExecTime < rs[0].ExecTime:
				return fmt.Errorf("clustering should not speed up private work (%v vs %v)", rs[1].ExecTime, rs[0].ExecTime)
			}
			return nil
		}},
		// Migratory data bounces partly inside a node once clustered.
		{"MicroMigratoryClustering", "micro-migratory", []config.Machine{base1, base4}, func(rs []*machine.Result) error {
			if rs[1].BusTotal() >= rs[0].BusTotal() {
				return fmt.Errorf("clustering should cut migratory traffic: %v vs %v", rs[1].BusTotal(), rs[0].BusTotal())
			}
			return nil
		}},
		// Read-shared data replicates at low pressure, and high pressure
		// squeezes exactly those replicas out.
		{"MicroReadSharedPressure", "micro-readshared", []config.Machine{base1, config.Baseline(1, config.MP87)}, func(rs []*machine.Result) error {
			switch {
			case rs[1].RNMr() <= rs[0].RNMr():
				return fmt.Errorf("pressure should hurt the read-shared pattern: %v vs %v", rs[1].RNMr(), rs[0].RNMr())
			case rs[1].Protocol.SharedDrops == 0:
				return fmt.Errorf("replication should be squeezed out at 87%% MP")
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := workload(t, c.app, 16)
			rs := make([]*machine.Result, len(c.cfgs))
			for i, cfg := range c.cfgs {
				var err error
				if rs[i], err = runner.RunTrace(tr, cfg); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.check(rs); err != nil {
				t.Fatal(err)
			}
		})
	}
}
