// Command report regenerates the paper's evaluation and writes a single
// self-contained HTML page with every table and figure as inline SVG.
//
//	go run ./cmd/report -o report.html
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config/flags"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	flags.SetUsage(flag.CommandLine, "report", "regenerate the paper's evaluation as a single self-contained HTML page")
	out := flags.Output(flag.CommandLine, "report.html")
	verbose := flags.Verbose(flag.CommandLine)
	jobs := flags.Jobs(flag.CommandLine)
	cpuprofile, memprofile := flags.Profiles(flag.CommandLine)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	r := experiments.NewRunner()
	r.Jobs = *jobs
	if *verbose {
		r.Progress = os.Stderr
	}
	data, err := report.Collect(r)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := report.Render(f, data); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func fatal(err error) {
	flags.Check("report", err)
}
