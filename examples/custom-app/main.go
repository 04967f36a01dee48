// Custom workload: build your own reference trace with the apps generator
// API — shared arrays, locks, barriers — and run it through the machine
// with Runner.RunTrace.
// This example implements a tiny producer/consumer pipeline where each
// processor writes a block that its right-hand neighbour then reads, a
// pattern that benefits maximally from clustering (writer and reader often
// share an attraction memory).
package main

import (
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func buildPipeline(procs int) *trace.Trace {
	g := apps.NewGen("pipeline", procs)
	const blockWords = 512
	buf := g.F64("ring-buffer", procs*blockWords)

	// Processor 0 initializes the ring (untimed init section).
	for i := 0; i < buf.Len(); i++ {
		buf.Write(0, i, float64(i))
	}
	g.Barrier()
	g.MeasureStart()

	for round := 0; round < 8; round++ {
		// Each processor writes its own block...
		for p := 0; p < procs; p++ {
			for i := 0; i < blockWords; i++ {
				buf.Write(p, p*blockWords+i, float64(round*i))
				g.Compute(p, 4)
			}
		}
		g.Barrier()
		// ...then reads its left neighbour's block. With sequential
		// process-to-cluster assignment, most neighbours share a node.
		for p := 0; p < procs; p++ {
			src := (p + procs - 1) % procs
			var sum float64
			for i := 0; i < blockWords; i++ {
				sum += buf.Read(p, src*blockWords+i)
				g.Compute(p, 3)
			}
			_ = sum
		}
		g.Barrier()
	}
	return g.Finish()
}

func main() {
	tr := buildPipeline(16)
	fmt.Printf("custom pipeline workload: WS %d KB\n\n", tr.WorkingSet/1024)
	r := experiments.NewRunner()
	for _, ppn := range []int{1, 2, 4} {
		res, err := r.RunTrace(tr, config.Baseline(ppn, config.MP50))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d procs/node: exec %-10v RNMr %.4f  bus %v\n",
			ppn, res.ExecTime, res.RNMr(), res.BusTotal())
	}
	fmt.Println("\nneighbour communication turns remote misses into node hits as clusters grow")
}
