// Memory-pressure sweep: traffic and performance of one workload across
// the paper's five memory pressures, for single-processor and 4-processor
// nodes — the experiment behind Figures 3 and 4, for a single application.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	app := flag.String("app", "fft", "workload to sweep")
	flag.Parse()

	r := experiments.NewRunner()
	tr, err := r.Trace(*app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (WS %d KB): bus traffic by class across memory pressure\n\n", *app, tr.WorkingSet/1024)
	fmt.Printf("%-6s %-4s %-12s %-12s %-12s %-12s\n", "cfg", "MP", "read(ns)", "write(ns)", "replace(ns)", "exec(ns)")

	for _, ppn := range []int{1, 4} {
		for _, mp := range config.Pressures {
			res, err := r.Run(*app, config.Baseline(ppn, mp))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6s %-4s %-12d %-12d %-12d %-12d\n",
				fmt.Sprintf("%dp", ppn), mp.Label,
				res.BusOccupancy[0], res.BusOccupancy[1], res.BusOccupancy[2],
				res.ExecTime)
		}
		fmt.Println()
	}
}
