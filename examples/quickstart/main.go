// Quickstart: simulate one SPLASH-2-style workload on a clustered COMA
// machine and print what the paper measures — execution-time breakdown,
// read node miss rate and bus traffic by class.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	// The runner generates the workload's reference trace for the paper's
	// 16 processors once, and simulates machine configurations over it.
	r := experiments.NewRunner()
	tr, err := r.Trace("ocean-c")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload ocean-c: working set %d KB\n", tr.WorkingSet/1024)

	// A machine with 4 processors per node at 81% memory pressure —
	// the configuration where the paper shows clustering shines.
	cfg := config.Baseline(4, config.MP81)
	cfg.DRAMBandwidth = 2 // as in the paper's Figure 5

	res, err := r.Run("ocean-c", cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("execution time: %v\n", res.ExecTime)
	b := res.Breakdown()
	fmt.Printf("mean breakdown: busy %.0f ns, SLC %.0f ns, AM %.0f ns, remote %.0f ns, sync %.0f ns\n",
		b.Busy, b.SLC, b.AM, b.Remote, b.Sync)
	fmt.Printf("read node miss rate: %.4f (%d of %d reads)\n",
		res.RNMr(), res.ReadNodeMisses, res.Reads)
	fmt.Printf("bus occupancy: read %v, write %v, replace %v\n",
		res.BusOccupancy[0], res.BusOccupancy[1], res.BusOccupancy[2])
}
