// Command loadgen drives one comasrv daemon or a whole fleet with a
// seeded, reproducible request stream and reports throughput, latency
// percentiles and the local/peer/compute source split. It is the
// measurement harness behind the fleet's scaling claim: run it against a
// single shard and against a fleet with the same seed, and compare the
// cache-served throughput.
//
// Usage:
//
//	go run ./cmd/loadgen -targets http://127.0.0.1:8080
//	go run ./cmd/loadgen -targets http://127.0.0.1:8080,http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -dist zipfian -theta 0.99 -duration 10s -out BENCH_results.json -label fleet-3
//	go run ./cmd/loadgen -targets ... -quick      # CI-sized: 16 keys, 2s
//
// With -out, the run is merged into the results file's "fleet" list,
// keyed by label (rerunning a label replaces it in place), alongside the
// simulator matrix entries cmd/bench maintains.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/config/flags"
	"repro/internal/loadgen"
)

// fleetEntry is one tracked load-generation point in BENCH_results.json.
type fleetEntry struct {
	Label       string  `json:"label"`
	Date        string  `json:"date"`
	Mode        string  `json:"mode"` // "single" or "fleet"
	Dist        string  `json:"dist"`
	Theta       float64 `json:"theta,omitempty"`
	Keys        int     `json:"keys"`
	Seed        int64   `json:"seed"`
	Route       string  `json:"route"`
	Concurrency int     `json:"concurrency"`
	Note        string  `json:"note,omitempty"`
	loadgen.Result
}

// benchFile is the slice of BENCH_results.json this command owns: the
// fleet list. The simulator matrix entries are carried through verbatim
// so loadgen and cmd/bench can share the file without knowing each
// other's schemas.
type benchFile struct {
	Schema  int               `json:"schema"`
	Matrix  string            `json:"matrix"`
	Entries json.RawMessage   `json:"entries,omitempty"`
	Fleet   []json.RawMessage `json:"fleet,omitempty"`
}

// merge loads the results file (if any), replaces the fleet entry with
// the same label or appends, and writes it back.
func merge(path string, e fleetEntry) error {
	file := benchFile{Schema: 1, Matrix: "figure2-mp6"}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	replaced := false
	for i, old := range file.Fleet {
		var v struct {
			Label string `json:"label"`
		}
		if json.Unmarshal(old, &v) == nil && v.Label == e.Label {
			file.Fleet[i] = raw
			replaced = true
			break
		}
	}
	if !replaced {
		file.Fleet = append(file.Fleet, raw)
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	flags.SetUsage(flag.CommandLine, "loadgen", "drive a comasrv daemon or fleet with a seeded request stream and measure how it is served")
	targets := flag.String("targets", "", `comma-separated daemon base URLs (required), e.g. "http://127.0.0.1:8080,http://127.0.0.1:8081"`)
	dist := flag.String("dist", "zipfian", "key popularity: zipfian, uniform or hotset")
	theta := flag.Float64("theta", 0.99, "zipfian exponent, in (0,1)")
	keys := flag.Int("keys", 64, "key-universe size (distinct simulation requests)")
	seed := flag.Int64("seed", 1, "distribution seed (same seed = same request sequence)")
	route := flag.String("route", "rr", `target per request: "rr" (round-robin, exercises peer fill) or "ring" (owner-routed, sums the fleet's cache capacities)`)
	conc := flag.Int("c", 4, "concurrent workers")
	duration := flag.Duration("duration", 5*time.Second, "timed-phase length")
	requests := flag.Int64("requests", 0, "additionally stop after this many issued requests (0 = duration only)")
	warm := flag.Bool("warm", true, "issue every key once before timing, routed to its owner shard in fleet mode")
	app := flag.String("app", "fft", "workload behind every key")
	procs := flag.Int("procs", 8, "machine size behind every key")
	mp := flag.String("mp", "6%", "memory pressure behind every key")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	quick := flag.Bool("quick", false, "CI-sized run: 16 keys, 2s (explicit -keys/-duration/-c still win)")
	out := flag.String("out", "", "merge the run into this results file's fleet list (empty = report only)")
	label := flag.String("label", "fleet", "entry label for -out (same label replaces in place)")
	note := flag.String("note", "", "free-form note stored with the -out entry")
	asJSON := flag.Bool("json", false, "print the full result as JSON")
	flag.Parse()

	if *targets == "" {
		flags.Check("loadgen", fmt.Errorf("missing required -targets"))
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *quick {
		if !explicit["keys"] {
			*keys = 16
		}
		if !explicit["duration"] {
			*duration = 2 * time.Second
		}
		if !explicit["c"] {
			*conc = 4
		}
	}

	cfg := loadgen.Config{
		Targets:     strings.Split(*targets, ","),
		Dist:        *dist,
		Theta:       *theta,
		Keys:        *keys,
		Seed:        *seed,
		Route:       *route,
		Concurrency: *conc,
		Duration:    *duration,
		MaxRequests: *requests,
		Warm:        *warm,
		App:         *app,
		Procs:       *procs,
		MP:          *mp,
		Timeout:     *timeout,
	}
	for i := range cfg.Targets {
		cfg.Targets[i] = strings.TrimRight(strings.TrimSpace(cfg.Targets[i]), "/")
	}

	res, err := cfg.Run(context.Background())
	flags.Check("loadgen", err)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		flags.Check("loadgen", enc.Encode(res))
	} else {
		fmt.Printf("%d shard(s), %s over %d keys (seed %d): %d requests in %.2fs\n",
			res.Shards, *dist, *keys, *seed, res.Requests, res.DurationS)
		fmt.Printf("  throughput      %9.1f req/s (cache-served %.1f/s)\n", res.Throughput, res.CacheServedPerSec)
		fmt.Printf("  sources         local %d, peer %d, compute %d (peer-fill ratio %.2f)\n",
			res.Source["local"], res.Source["peer"], res.Source["compute"], res.PeerFillRatio)
		fmt.Printf("  latency ms      p50 %.2f, p90 %.2f, p99 %.2f\n",
			res.LatencyMsP50, res.LatencyMsP90, res.LatencyMsP99)
		fmt.Printf("  shed %d, errors %d, warmed %d\n", res.Shed, res.Errors, res.WarmedKeys)
	}

	if *out != "" {
		e := fleetEntry{
			Label: *label, Date: time.Now().UTC().Format("2006-01-02T15:04:05Z"),
			Mode: "single", Dist: *dist, Keys: *keys, Seed: *seed,
			Route: *route, Concurrency: *conc, Note: *note, Result: res,
		}
		if res.Shards > 1 {
			e.Mode = "fleet"
		}
		if *dist == "zipfian" {
			e.Theta = *theta
		}
		flags.Check("loadgen", merge(*out, e))
		fmt.Printf("merged %s fleet entry %q\n", *out, *label)
	}

	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request(s) failed\n", res.Errors)
		os.Exit(1)
	}
}
