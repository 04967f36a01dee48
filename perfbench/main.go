// Command perfbench is the repository's layered benchmark. It runs one
// named workload against the simulator and the comasrv daemon through
// their public Go APIs, checks that every output is correct, and prints
// one JSON result object as the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-exact --seed 1 --seconds 12 --trace 0
//
// Workloads:
//
//   - sim-exact: 14 paper apps x 3 machine cells through experiments.Runner
//     at exact fidelity (the detailed simulator core);
//   - sim-sampled: the same 42 runs at sampled fidelity (the fast-forward
//     path);
//   - serve-hits: a 3-shard in-process comasrv fleet under warm, read-only
//     zipfian traffic (HTTP, canonicalisation, store, peer fill);
//   - serve-fill: the same fleet under never-seen simulate keys and
//     COMATRC2 trace uploads (compute, store writes, decode).
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics (see layers.go), spans are written as
// JSONL under .bench_build/spans/, and a per-layer self-time table goes
// to standard error. README.md lists every metric and what moves it.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// pinnedDigests holds the per-(fidelity, cell, app) digests of the
// simulator's count statistics, pinned from a known-good commit.
//
//go:embed digests.json
var pinnedDigests []byte

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"sim-exact":   func(r *run) error { return runSim(r, false) },
	"sim-sampled": func(r *run) error { return runSim(r, true) },
	"serve-hits":  runServeHits,
	"serve-fill":  runServeFill,
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// quick shrinks every workload to a smoke-sized run (the self-test).
	quick bool
	// pins maps digest keys to their expected values.
	pins map[string]string
	// spec names the metrics a result carries, with their units.
	spec benchSpec
	// spanDir receives the JSONL span file of a traced run.
	spanDir string
	log     io.Writer
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// measured names the metrics the workload set; the others are 0.
	measured map[string]bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sim-exact, sim-sampled, serve-hits or serve-fill")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	secs := flag.Float64("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	writeDigests := flag.String("write-digests", "", "run the full sim matrices once and write their digests to this file")
	flag.Parse()
	if *writeDigests != "" {
		check(pinDigests(*writeDigests))
		return
	}
	if *traced != 0 && *traced != 1 {
		check(fmt.Errorf("--trace must be 0 or 1, got %d", *traced))
	}
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = *traced == 1
	o.spanDir = filepath.Join(".bench_build", "spans")
	o.log = os.Stderr
	check(json.Unmarshal(pinnedDigests, &o.pins))
	spec, err := loadSpec()
	check(err)
	o.spec = spec
	res, prov, err := execute(o)
	check(err)
	pj, err := json.Marshal(prov)
	check(err)
	line, err := json.Marshal(res)
	check(err)
	fmt.Printf("provenance %s\n%s\n", pj, line)
}

// check exits with status 1, printing no result, on an error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and assembles its result line. A traced run
// measures the workload twice, untraced then traced, each for half the
// time, so trace_overhead_pct compares like with like.
func execute(o options) (result, map[string]any, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (known: sim-exact, sim-sampled, serve-hits, serve-fill)", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, nil, errors.New("--seconds must be positive")
	}
	prov := provenance(o)
	heap := startHeapSampler()
	var r *run
	if !o.trace {
		r = newRun(o, false, heap)
		if err := drive(r); err != nil {
			heap.finish()
			return result{}, nil, err
		}
	} else {
		half := o
		half.seconds = o.seconds / 2
		plain := newRun(half, false, heap)
		if err := drive(plain); err != nil {
			heap.finish()
			return result{}, nil, err
		}
		r = newRun(half, true, heap)
		if err := drive(r); err != nil {
			heap.finish()
			return result{}, nil, err
		}
		r.attempted += plain.attempted
		r.failed += plain.failed
		base, traced := plain.e2e["throughput_per_s"], r.e2e["throughput_per_s"]
		if base > 0 && traced > 0 {
			r.layer("trace_overhead_pct", 100*(base/traced-1))
		}
		path, err := r.spans.writeJSONL(o.spanDir, o.workload, o.seed, prov)
		if err != nil {
			return result{}, nil, err
		}
		prov["spans_file"] = path
		r.spans.writeSelfTimes(o.log)
	}
	r.endToEnd("live_heap_mb_p95", heap.finish())
	r.info["peak_rss_mb"] = peakRSSMB()
	for k, v := range r.info {
		prov[k] = v
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}, measured: map[string]bool{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	want, got := o.spec.EndToEnd, r.e2e
	if o.trace {
		want, got = o.spec.PerLayer, r.layers
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && !o.trace {
			return result{}, nil, fmt.Errorf("workload %s reported no %s", o.workload, m.Name)
		}
		// A layer this workload does not exercise did no work: 0.
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		res.measured[m.Name] = ok
	}
	for name := range got {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, nil, fmt.Errorf("workload %s set %s, which BENCHMARK.json does not declare", o.workload, name)
		}
	}
	return res, prov, nil
}

// run accumulates one measurement pass.
type run struct {
	opts      options
	traced    bool
	attempted int64
	failed    int64
	e2e       map[string]float64
	layers    map[string]float64
	info      map[string]any
	spans     *recorder
	heap      *heapSampler
	measuring bool
}

func newRun(o options, traced bool, heap *heapSampler) *run {
	return &run{
		opts:   o,
		traced: traced,
		heap:   heap,
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		info:   map[string]any{},
		spans:  newRecorder(o.workload, traced),
	}
}

func (r *run) endToEnd(name string, v float64) { r.e2e[name] = v }
func (r *run) layer(name string, v float64)    { r.layers[name] = v }

// scaled sets an end-to-end metric to its value in reference-host time
// (see hostSpeed) and records its wall-clock value in the provenance.
func (r *run) scaled(name string, wall, ref float64) {
	r.endToEnd(name, ref)
	if r.info["wall_clock"] == nil {
		r.info["wall_clock"] = map[string]float64{}
	}
	r.info["wall_clock"].(map[string]float64)[name] = wall
}

// startMeasuring marks the end of the first set-up: the live heap counts
// from here on.
func (r *run) startMeasuring() {
	if !r.measuring {
		r.measuring = true
		r.heap.restart()
	}
}

// fail records a failed operation and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.opts.log, "perfbench: FAIL "+format+"\n", args...)
}

// provenance describes the machine, toolchain and settings of a run.
func provenance(o options) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds.Seconds(),
		"traced":        o.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
