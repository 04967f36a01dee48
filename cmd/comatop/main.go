// Command comatop is a terminal dashboard over a comasrv fleet: one row
// per shard with throughput, cache-hit, peer-fill and shed rates plus
// latency quantiles, and fleet-summed sparklines from the daemons'
// metric history. It speaks only the public observability API (see
// API.md) and renders plain ANSI — no terminal library.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/comatop"
	"repro/internal/config/flags"
)

func main() {
	flags.SetUsage(flag.CommandLine, "comatop", "terminal dashboard over a comasrv fleet")
	targets := flag.String("targets", "http://127.0.0.1:8080", "comma-separated comasrv base URLs (any one fleet member is enough in fleet mode)")
	interval := flag.Duration("interval", 2*time.Second, "refresh period")
	window := flag.Duration("window", time.Hour, "sparkline history window")
	gap := flag.Duration("gap", 700*time.Millisecond, "-once: delay between the two samples that derive rates")
	once := flag.Bool("once", false, "render one snapshot to stdout and exit (CI probe mode)")
	flag.Parse()

	var urls []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(strings.TrimSuffix(t, "/")); t != "" {
			urls = append(urls, t)
		}
	}
	if len(urls) == 0 {
		flags.Check("comatop", fmt.Errorf("-targets is empty"))
	}
	col := &comatop.Collector{Targets: urls, Window: *window}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *once {
		// Two samples a short gap apart so the rate columns are real
		// deltas, not zeros.
		if _, err := col.Collect(ctx); err != nil {
			flags.Check("comatop", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(*gap):
		}
		snap, err := col.Collect(ctx)
		flags.Check("comatop", err)
		fmt.Print(comatop.Render(snap))
		return
	}

	for {
		snap, err := col.Collect(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "comatop: %v\n", err)
		} else {
			// Home the cursor and clear before each frame.
			fmt.Print("\x1b[H\x1b[2J" + comatop.Render(snap))
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return
		case <-time.After(*interval):
		}
	}
}
