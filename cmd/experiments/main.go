// Command experiments regenerates every table and figure of the paper's
// evaluation section. With -only it runs a single artifact:
//
//	table1, fig2, fig3, fig4, fig5, thresholds, sens-dram, sens-node,
//	sens-bus, latency, sens-mp
//
// plus the on-demand extras (not part of the default set):
//
//	fig2scaled          — clustering and memory-pressure sweeps at 64 and
//	                      128 processors on the ring-of-clusters topology
//	fig2irregular       — the same sweeps over the irregular and allocator
//	                      workloads, on the bus and on the ring
//	fidelitycheck       — sampled-fidelity error against exact runs over
//	                      Figure 2's matrix; exits 1 outside an envelope
//	fidelitycheck-quick — the same check on a representative app subset
package main

import (
	"flag"
	"os"
	"strings"

	"repro/internal/config/flags"
	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	flags.SetUsage(flag.CommandLine, "experiments", "regenerate the paper's tables and figures (all, or one artifact with -only)")
	only := flag.String("only", "", "run a single artifact: "+strings.Join(experiments.Artifacts(), ", ")+
		"; or an extra: "+strings.Join(experiments.ExtraArtifacts(), ", "))
	chart := flag.Bool("chart", false, "render figures 3-5 as stacked bar charts")
	procs := flags.Procs(flag.CommandLine, 16)
	fidelity := flags.Fidelity(flag.CommandLine)
	verbose := flags.Verbose(flag.CommandLine)
	jobs := flags.Jobs(flag.CommandLine)
	cpuprofile, memprofile := flags.Profiles(flag.CommandLine)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	check(err)
	defer stopProf()

	r := experiments.NewRunner()
	r.Procs = *procs
	r.Jobs = *jobs
	r.Fidelity = fidelity()
	if *verbose {
		r.Progress = os.Stderr
	}
	names := experiments.Artifacts()
	if *only != "" {
		// A single -only run resolves any renderable artifact, including
		// the extras excluded from the default set.
		names = []string{*only}
	}
	for _, name := range names {
		check(experiments.RenderArtifact(os.Stdout, r, name, *chart))
	}
}

func check(err error) {
	flags.Check("experiments", err)
}
