// Command sweep runs a cartesian parameter sweep (applications x
// clustering x memory pressure x associativity x DRAM bandwidth) and
// emits one CSV row per simulated point, for plotting or regression
// tracking.
//
//	go run ./cmd/sweep -apps fft,radix -ppn 1,4 -mp 50%,81% > sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/config/flags"
	"repro/internal/experiments"
)

func main() {
	flags.SetUsage(flag.CommandLine, "sweep", "run a cartesian parameter sweep and emit one CSV row per simulated point")
	apps := flag.String("apps", "", "comma-separated workloads (default: all 14)")
	ppn := flag.String("ppn", "1,2,4", "comma-separated processors per node")
	mps := flag.String("mp", "", "comma-separated pressures, e.g. 6%,50% (default: all 5)")
	ways := flag.String("ways", "4", "comma-separated AM associativities")
	dram := flag.String("dram", "1", "comma-separated DRAM bandwidth multipliers")
	topology := flag.String("topology", "", "interconnect topology for every point: bus (default) or ring")
	clusters := flag.Int("clusters", 0, "ring cluster count (0 = one cluster per node)")
	linkLat := flag.Int("linklat", 0, "ring link latency in ns (0 = default, -1 = explicitly zero)")
	scalePressure := flag.Bool("scale-pressure", false, "hold the fractional memory pressure constant at non-paper machine sizes")
	verbose := flags.Verbose(flag.CommandLine)
	dryRun := flag.Bool("n", false, "print the point count and exit")
	jobs := flags.Jobs(flag.CommandLine)
	flag.Parse()

	spec := experiments.SweepSpec{
		Apps:          splitList(*apps),
		ProcsPerNode:  mustInts(*ppn),
		AMWays:        mustInts(*ways),
		DRAM:          mustFloats(*dram),
		Topology:      *topology,
		Clusters:      *clusters,
		LinkLatencyNs: *linkLat,
		ScalePressure: *scalePressure,
	}
	for _, label := range splitList(*mps) {
		p, err := config.PressureByLabel(label)
		if err != nil {
			fatal(err)
		}
		spec.Pressures = append(spec.Pressures, p)
	}
	if *dryRun {
		fmt.Printf("%d points\n", spec.Points())
		return
	}
	r := experiments.NewRunner()
	r.Jobs = *jobs
	if *verbose {
		r.Progress = os.Stderr
	}
	rows, err := r.Sweep(spec)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteSweepCSV(os.Stdout, rows); err != nil {
		fatal(err)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func mustInts(s string) []int {
	var out []int
	for _, f := range splitList(s) {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func mustFloats(s string) []float64 {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			fatal(err)
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	flags.Check("sweep", err)
}
