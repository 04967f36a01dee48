// Command experiments regenerates every table and figure of the paper's
// evaluation section. With -only it runs a single artifact:
//
//	table1, fig2, fig3, fig4, fig5, thresholds, sens-dram, sens-node,
//	sens-bus, latency, sens-mp
//
// plus the on-demand extras (not part of the default set):
//
//	fig2scaled    — clustering and memory-pressure sweeps at 64 and 128
//	                processors on the ring-of-clusters topology
//	fig2irregular — the same sweeps over the irregular and allocator
//	                workloads, on the bus and on the ring
package main

import (
	"flag"
	"io"
	"os"
	"strings"

	"repro/internal/config/flags"
	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	flags.Check("experiments", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and renders the selected artifacts to stdout, with
// usage and -v progress on stderr. A malformed flag exits like any
// command's (status 2); every other failure is returned, after the
// profiles asked for have been written.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	flags.SetUsage(fs, "experiments", "regenerate the paper's tables and figures (all, or one artifact with -only)")
	only := fs.String("only", "", "run a single artifact: "+strings.Join(experiments.Artifacts(), ", ")+
		"; or an extra: "+strings.Join(experiments.ExtraArtifacts(), ", "))
	chart := fs.Bool("chart", false, "render figures 3-5 as stacked bar charts")
	procs := flags.Procs(fs, 16)
	verbose := flags.Verbose(fs)
	jobs := flags.Jobs(fs)
	cpuprofile, memprofile := flags.Profiles(fs)
	fs.Parse(args)

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	r := experiments.NewRunner()
	r.Procs = *procs
	r.Jobs = *jobs
	if *verbose {
		r.Progress = stderr
	}
	names := experiments.Artifacts()
	if *only != "" {
		// A single -only run resolves any renderable artifact, including
		// the extras excluded from the default set.
		names = []string{*only}
	}
	for _, name := range names {
		if err := experiments.RenderArtifact(stdout, r, name, *chart); err != nil {
			return err
		}
	}
	return nil
}
