// Command comasim runs one COMA simulation configuration and prints the
// full measurement record: execution-time breakdown, read-node-miss rate,
// bus traffic by class and protocol counters.
package main

import (
	"flag"
	"fmt"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/config/flags"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/numa"
)

func main() {
	flags.SetUsage(flag.CommandLine, "comasim", "run one COMA simulation configuration and print the full measurement record")
	app := flag.String("app", "radix", "workload name (see -list)")
	list := flag.Bool("list", false, "list workloads and exit")
	ppn := flag.Int("procs-per-node", 1, "processors per node (1, 2 or 4)")
	mp := flag.String("mp", "50%", "memory pressure: 6%, 50%, 75%, 81%, 87%")
	ways := flag.Int("am-ways", 4, "attraction-memory associativity")
	dramBW := flag.Float64("dram-bw", 1, "DRAM bandwidth multiplier")
	ncBW := flag.Float64("nc-bw", 1, "node-controller bandwidth multiplier")
	busBW := flag.Float64("bus-bw", 1, "bus bandwidth multiplier")
	inclusive := flag.Bool("inclusive", true, "inclusive cache hierarchy")
	baseline := flag.Bool("numa", false, "run the CC-NUMA baseline machine instead of COMA")
	update := flag.Bool("write-update", false, "write-update protocol instead of invalidation")
	fidelity := flags.Fidelity(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range apps.Names() {
			fmt.Println(n)
		}
		for _, n := range apps.MicroNames() {
			fmt.Println(n)
		}
		return
	}
	pressure, err := config.PressureByLabel(*mp)
	if err != nil {
		fatal(err)
	}
	tr, err := apps.Generate(*app, 16)
	if err != nil {
		fatal(err)
	}
	cfg := config.Baseline(*ppn, pressure)
	cfg.AMWays = *ways
	cfg.DRAMBandwidth = *dramBW
	cfg.NCBandwidth = *ncBW
	cfg.BusBandwidth = *busBW
	cfg.Inclusive = *inclusive
	cfg.Policy.WriteUpdate = *update
	cfg.Fidelity = fidelity()
	var res *machine.Result
	if *baseline {
		if cfg.Fidelity.Sampled() {
			fatal(fmt.Errorf("sampled fidelity is not implemented for the CC-NUMA baseline machine"))
		}
		var m *machine.Machine
		if m, err = numa.NewMachine(cfg.Params(tr.WorkingSet)); err == nil {
			res, err = m.Run(tr)
		}
	} else {
		res, err = experiments.NewRunner().RunTrace(tr, cfg)
	}
	if err != nil {
		fatal(err)
	}

	system := "COMA"
	if *baseline {
		system = "CC-NUMA baseline"
	} else if *update {
		system = "COMA (write-update)"
	}
	fmt.Printf("workload          %s (WS %d KB)\n", *app, tr.WorkingSet/1024)
	fmt.Printf("configuration     %s: %d procs/node, MP %s, %d-way AM, BW dram=%.2g nc=%.2g bus=%.2g\n",
		system, *ppn, pressure.Label, *ways, *dramBW, *ncBW, *busBW)
	fmt.Printf("execution time    %v\n", res.ExecTime)
	b := res.Breakdown()
	fmt.Printf("breakdown (mean)  busy=%.0f slc=%.0f am=%.0f remote=%.0f sync=%.0f ns\n",
		b.Busy, b.SLC, b.AM, b.Remote, b.Sync)
	fmt.Printf("reads             %d (node misses %d, RNMr %.4f)\n",
		res.Reads, res.ReadNodeMisses, res.RNMr())
	fmt.Printf("bus occupancy     read=%v write=%v replace=%v (total %v)\n",
		res.BusOccupancy[0], res.BusOccupancy[1], res.BusOccupancy[2], res.BusTotal())
	p := res.Protocol
	fmt.Printf("protocol          readmiss=%d writemiss=%d upgrades=%d cold=%d injects=%d promotes=%d shared-drops=%d forced-drops=%d\n",
		p.ReadMisses, p.WriteMisses, p.Upgrades, p.ColdAllocs, p.Injects, p.Promotes, p.SharedDrops, p.ForcedDrops)
	fmt.Printf("utilization       bus=%.1f%% max-dram=%.1f%%\n",
		100*res.BusUtilization, 100*res.MaxDRAMUtilization())
	fmt.Printf("read latency      median<=%dns p99<=%dns  [%s]\n",
		res.ReadLatency.Quantile(0.5), res.ReadLatency.Quantile(0.99), &res.ReadLatency)
	fmt.Printf("load imbalance    %.3f (slowest processor / mean finish)\n", res.Imbalance())
	if rep := res.Fidelity; rep != nil {
		fmt.Printf("fidelity          sampled %d/%d/%dns: %d windows, %.1f%% detailed, lambda=%.2f (exec-time RSE %.1f%%)\n",
			rep.WarmupNs, rep.WindowNs, rep.PeriodNs, rep.Windows,
			100*rep.Coverage, rep.Lambda, 100*rep.Confidence.ExecTime)
	}
}

func fatal(err error) {
	flags.Check("comasim", err)
}
