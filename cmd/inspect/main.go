// Command inspect dumps the simulator's observability data for a matrix of
// (application, configuration) runs: per-resource utilization and queueing
// tables, protocol state-transition count matrices and protocol counters,
// as aligned text or flat CSV. Output is byte-identical for any -jobs
// value.
//
//	go run ./cmd/inspect -apps fft,radix -ppn 1,4 -mp 50%,87% -what util
//	go run ./cmd/inspect -what transitions -format csv
//	go run ./cmd/inspect -apps fft -events fft.jsonl   # raw event trace
//	go run ./cmd/inspect -timeline -window 100000      # windowed sparklines
//	go run ./cmd/inspect -timeline -format csv         # raw per-window CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/config/flags"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
)

func main() {
	flags.SetUsage(flag.CommandLine, "inspect", "dump per-resource utilization, protocol-transition and protocol-counter tables for a run matrix")
	procs := flags.Procs(flag.CommandLine, 16)
	appsFlag := flag.String("apps", "", "comma-separated applications (default: all)")
	ppnFlag := flag.String("ppn", "1,4", "comma-separated clustering degrees")
	mpFlag := flag.String("mp", "50%", "comma-separated memory pressures (6%,50%,75%,81%,87%)")
	ways := flag.Int("ways", 4, "attraction-memory associativity")
	dram := flag.Float64("dram", 1, "DRAM bandwidth multiplier")
	nc := flag.Float64("nc", 1, "node-controller bandwidth multiplier")
	bus := flag.Float64("bus", 1, "bus bandwidth multiplier")
	topology := flag.String("topology", "", "interconnect topology: bus (default) or ring")
	clusters := flag.Int("clusters", 0, "ring cluster count (0 = one cluster per node)")
	linkLat := flag.Int("linklat", 0, "ring link latency in ns (0 = default, -1 = explicitly zero)")
	what := flag.String("what", "all", "what to dump: util, transitions, protocol or all")
	format := flag.String("format", "text", "output format: text or csv")
	timeline := flag.Bool("timeline", false, "sample windowed counters and dump the per-run timeline (sparklines, or raw windows with -format csv)")
	window := flag.Int64("window", 100000, "sampling window width in simulated ns (with -timeline)")
	events := flag.String("events", "", "write a JSONL event trace of the first run to this file")
	outPath := flags.Output(flag.CommandLine, "")
	jobs := flags.Jobs(flag.CommandLine)
	verbose := flags.Verbose(flag.CommandLine)
	flag.Parse()

	appNames := experiments.Apps()
	if *appsFlag != "" {
		appNames = strings.Split(*appsFlag, ",")
	}
	cfgs, err := buildConfigs(*ppnFlag, *mpFlag, *ways, *dram, *nc, *bus, *topology, *clusters, *linkLat)
	check(err)

	r := experiments.NewRunner()
	r.Procs = *procs
	r.Jobs = *jobs
	if *verbose {
		r.Progress = os.Stderr
	}
	if *timeline {
		if *window < 1 {
			check(fmt.Errorf("-window must be positive, got %d", *window))
		}
		r.SampleWindow = engine.Time(*window)
	}

	rows, err := r.Inspect(appNames, cfgs)
	check(err)

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		check(err)
		defer f.Close()
		out = f
	}
	w := *what
	if *timeline {
		w = "timeline"
	}
	check(dump(out, rows, w, *format))

	if *events != "" {
		check(dumpEvents(r, appNames[0], cfgs[0], *events))
		fmt.Fprintf(os.Stderr, "wrote event trace %s\n", *events)
	}
}

// buildConfigs expands the flag cross product into configurations in
// ppn-major, pressure-minor order.
func buildConfigs(ppnFlag, mpFlag string, ways int, dram, nc, bus float64, topology string, clusters, linkLat int) ([]config.Machine, error) {
	var cfgs []config.Machine
	for _, ppnStr := range strings.Split(ppnFlag, ",") {
		ppn, err := strconv.Atoi(strings.TrimSpace(ppnStr))
		if err != nil {
			return nil, fmt.Errorf("bad -ppn element %q: %v", ppnStr, err)
		}
		for _, mpStr := range strings.Split(mpFlag, ",") {
			mp, err := config.PressureByLabel(strings.TrimSpace(mpStr))
			if err != nil {
				return nil, err
			}
			c := config.Baseline(ppn, mp)
			c.AMWays = ways
			c.DRAMBandwidth = dram
			c.NCBandwidth = nc
			c.BusBandwidth = bus
			c.Topology = topology
			c.Clusters = clusters
			c.LinkLatencyNs = linkLat
			cfgs = append(cfgs, c)
		}
	}
	return cfgs, nil
}

func dump(w io.Writer, rows []experiments.InspectRow, what, format string) error {
	csv := format == "csv"
	if !csv && format != "text" {
		return fmt.Errorf("unknown -format %q (text or csv)", format)
	}
	sections := map[string][2]func(io.Writer, []experiments.InspectRow) error{
		"util":        {experiments.WriteUtilization, experiments.WriteUtilizationCSV},
		"transitions": {experiments.WriteTransitions, experiments.WriteTransitionsCSV},
		"protocol":    {experiments.WriteProtocol, experiments.WriteProtocolCSV},
		"timeline":    {experiments.WriteTimeline, experiments.WriteTimelineCSV},
	}
	order := []string{"util", "transitions", "protocol"}
	if what != "all" {
		if _, ok := sections[what]; !ok {
			return fmt.Errorf("unknown -what %q (util, transitions, protocol or all)", what)
		}
		order = []string{what}
	}
	for _, name := range order {
		fns := sections[name]
		fn := fns[0]
		if csv {
			fn = fns[1]
		}
		if err := fn(w, rows); err != nil {
			return err
		}
	}
	return nil
}

// dumpEvents re-runs one configuration outside the runner's memoized cache
// with a JSONL sink attached, streaming every instrumentation event.
func dumpEvents(r *experiments.Runner, app string, cfg config.Machine, path string) error {
	tr, err := r.Trace(app)
	if err != nil {
		return err
	}
	if cfg.Procs == 0 {
		cfg.Procs = r.Procs
	}
	m, err := machine.New(cfg.Params(tr.WorkingSet))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONL(f)
	m.SetSink(sink)
	if _, err := m.Run(tr); err != nil {
		f.Close()
		return err
	}
	if sink.Err() != nil {
		f.Close()
		return sink.Err()
	}
	return f.Close()
}

func check(err error) {
	flags.Check("inspect", err)
}
