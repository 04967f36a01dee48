// Command tracedump generates workload traces and prints their summary
// statistics: footprint, reference counts, sharing degree and generation
// time. Useful for inspecting and tuning the workload kernels, and as
// the client path for comasrv trace ingestion. Traces are saved, loaded
// and uploaded in the compact wire format (TRACES.md): -save writes each
// generated trace, -load summarizes a saved one, and -upload posts each
// generated trace and prints the digest to simulate it by reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/config/flags"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	flags.Check("tracedump", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes one tracedump invocation, writing the
// summary table to stdout and usage to stderr. A malformed flag exits
// like any command's (status 2); every other failure is returned.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracedump", flag.ExitOnError)
	fs.SetOutput(stderr)
	flags.SetUsage(fs, "tracedump", "generate workload traces and print their summary statistics")
	only := fs.String("app", "", "generate only this application (default: all, extras included)")
	procs := flags.Procs(fs, 16)
	saveDir := fs.String("save", "", "write each generated trace into this directory in the compact COMATRC2 wire format")
	load := fs.String("load", "", "summarize a COMATRC2 trace file instead of generating")
	upload := fs.String("upload", "", "POST each generated trace to this comasrv base URL (e.g. http://127.0.0.1:8080) and print its digest")
	fs.Parse(args)

	if *load != "" {
		raw, err := os.ReadFile(*load)
		if err != nil {
			return err
		}
		tr, err := trace.DecodeCompact(raw)
		if err != nil {
			return fmt.Errorf("%s: %w", *load, err)
		}
		summarize(stdout, tr, 0)
		return nil
	}

	selected := apps.All()
	if *only != "" {
		app, err := apps.ByName(*only)
		if err != nil {
			return err
		}
		selected = []apps.App{app}
	}
	var client *server.Client
	if *upload != "" {
		client = server.NewClient(*upload)
	}

	fmt.Fprintf(stdout, "%-11s %8s %9s %9s %9s %9s %9s %9s %8s\n",
		"app", "ws(KB)", "reads", "writes", "acquires", "barriers", "lines", "shared", "gen(s)")
	for _, app := range selected {
		start := time.Now()
		tr := app.Generate(*procs)
		el := time.Since(start)
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		summarize(stdout, tr, el.Seconds())
		if *saveDir != "" {
			if err := os.MkdirAll(*saveDir, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(*saveDir, tr.Name+".trace"), tr.EncodeCompact(), 0o644); err != nil {
				return err
			}
		}
		if client != nil {
			meta, err := client.UploadTrace(context.Background(), tr.EncodeCompact())
			if err != nil {
				return fmt.Errorf("%s: upload: %w", app.Name, err)
			}
			fmt.Fprintf(stdout, "  uploaded %s -> trace_ref %s (%d bytes)\n", app.Name, meta.Digest, meta.SizeBytes)
		}
	}
	return nil
}

func summarize(w io.Writer, tr *trace.Trace, genSeconds float64) {
	s := tr.Summarize()
	fmt.Fprintf(w, "%-11s %8d %9d %9d %9d %9d %9d %9d %8.2f\n",
		tr.Name, tr.WorkingSet/1024, s.Reads, s.Writes, s.Acquires, s.Barriers,
		s.DistinctLines, s.SharedLines, genSeconds)
}
