// Clustering sweep: how the attraction-memory efficiency and execution
// time of one workload change with 1, 2 and 4 processors per node — the
// experiment behind the paper's Figure 2 and Section 4.3, for a single
// application.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	app := flag.String("app", "barnes", "workload to sweep")
	flag.Parse()

	r := experiments.NewRunner()
	tr, err := r.Trace(*app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (WS %d KB), 16 processors, 81%% memory pressure, 2x DRAM bandwidth\n\n",
		*app, tr.WorkingSet/1024)
	fmt.Printf("%-12s %-8s %-12s %-10s %-10s\n", "procs/node", "nodes", "exec(ns)", "RNMr", "bus(ns)")

	var base float64
	for _, ppn := range []int{1, 2, 4} {
		cfg := config.Baseline(ppn, config.MP81)
		cfg.DRAMBandwidth = 2
		res, err := r.Run(*app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if ppn == 1 {
			base = float64(res.ExecTime)
		}
		fmt.Printf("%-12d %-8d %-12d %-10.4f %-10d  (%.0f%% of 1p)\n",
			ppn, 16/ppn, res.ExecTime, res.RNMr(), res.BusTotal(),
			100*float64(res.ExecTime)/base)
	}
}
