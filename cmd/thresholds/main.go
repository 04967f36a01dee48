// Command thresholds prints the paper's Section 4.2 analytical
// replication-space model: the memory pressure above which a cache line
// can no longer be replicated in every node, for a range of clusterings
// and associativities.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/config/flags"
	"repro/internal/stats"
)

func main() {
	flags.SetUsage(flag.CommandLine, "thresholds", "print the paper's §4.2 analytical replication-threshold table")
	procs := flags.Procs(flag.CommandLine, 16)
	flag.Parse()

	fmt.Println("Replication thresholds (paper Section 4.2): MP above which a line")
	fmt.Println("can no longer be replicated in every node of the machine")
	fmt.Println()
	t := stats.NewTable("procs/node", "nodes", "AM ways", "threshold", "exact")
	for _, ppn := range []int{1, 2, 4, 8} {
		if *procs%ppn != 0 {
			continue
		}
		for _, ways := range []int{2, 4, 8, 16} {
			m := analysis.Machine{Procs: *procs, ProcsPerNode: ppn, AMWays: ways}
			num, den, frac := m.ReplicationThreshold()
			t.Row(ppn, m.Nodes(), ways, stats.Pct(frac), fmt.Sprintf("%d/%d", num, den))
		}
	}
	flags.Check("thresholds", t.Write(os.Stdout))
	fmt.Println()
	fmt.Println("The paper's quoted points: 49/64 = 76.5% (1p, 4-way), 113/128 = 88.2%")
	fmt.Println("(1p, 8-way), 13/16 = 81.25% (4p, 4-way), 29/32 = 90.6% (4p, 8-way).")
}
