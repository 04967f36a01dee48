// COMA vs. CC-NUMA: the architectural argument of the paper's Section 2,
// as an experiment. The same workload runs on two machines that differ
// only in the node-level memory system — attraction memories that migrate
// and replicate data, versus fixed first-touch homes — and the attraction
// effect shows up directly in node miss rates and execution time.
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/numa"
)

func main() {
	fmt.Println("COMA vs CC-NUMA baseline (identical caches, bus and timing)")
	fmt.Println()
	fmt.Printf("%-10s %-6s %-14s %-14s %-10s\n", "workload", "cfg", "COMA exec(ns)", "NUMA exec(ns)", "COMA/NUMA")
	r := experiments.NewRunner()
	for _, name := range []string{"raytrace", "water-n2", "ocean-c", "radix"} {
		tr, err := r.Trace(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, ppn := range []int{1, 4} {
			cfg := config.Baseline(ppn, config.MP50)
			comaRes, err := r.Run(name, cfg)
			if err != nil {
				log.Fatal(err)
			}
			// The baseline machine takes the same parameters; only its
			// node-level memory system differs.
			m, err := numa.NewMachine(cfg.Params(tr.WorkingSet))
			if err != nil {
				log.Fatal(err)
			}
			numaRes, err := m.Run(tr)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-6s %-14d %-14d %8.1f%%\n",
				name, fmt.Sprintf("%dp", ppn),
				comaRes.ExecTime, numaRes.ExecTime,
				100*float64(comaRes.ExecTime)/float64(numaRes.ExecTime))
		}
	}
	fmt.Println()
	fmt.Println("the attraction memories turn repeated remote misses into node hits;")
	fmt.Println("NUMA pays the home-node round trip on every SLC miss")
}
