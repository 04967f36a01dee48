// Command bench is the tracked whole-simulation benchmark harness: it
// runs the Figure 2 (app, config) matrix end to end on a fresh machine
// per run, measures wall clock, allocations and peak RSS, and merges the
// numbers into BENCH_results.json at the repository root so the perf
// trajectory is visible across PRs.
//
// Usage:
//
//	go run ./cmd/bench                  # full Figure 2 matrix, 16 procs
//	go run ./cmd/bench -quick           # CI-sized: 8 procs, ppn {1,4}
//	go run ./cmd/bench -label after     # tag the entry
//
// The JSON schema is documented in README.md ("Benchmarking"). Entries
// are keyed by label: rerunning with an existing label replaces that
// entry in place, so the file accumulates one entry per tracked point
// (e.g. "before" and "after" for a perf PR).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/config/flags"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Run is one (application, configuration) cell of the benchmark matrix.
type Run struct {
	App      string  `json:"app"`
	PPN      int     `json:"ppn"`
	MP       string  `json:"mp"`
	Refs     int64   `json:"refs"`
	NsBest   int64   `json:"ns"`
	NsPerRef float64 `json:"ns_per_ref"`
	Allocs   int64   `json:"allocs"`
}

// Totals aggregates the matrix.
type Totals struct {
	NsPerRef     float64 `json:"ns_per_ref"`
	RefsPerSec   float64 `json:"refs_per_sec"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	PeakRSSBytes int64   `json:"peak_rss_bytes"`
}

// Entry is one tracked benchmark point.
type Entry struct {
	Label  string `json:"label"`
	Date   string `json:"date"`
	Go     string `json:"go"`
	NumCPU int    `json:"num_cpu"`
	Procs  int    `json:"procs"`
	Quick  bool   `json:"quick"`
	Iters  int    `json:"iters"`
	Note   string `json:"note,omitempty"`
	// Fidelity and SpeedupVsExact are set only on entries recorded when
	// the harness could run the matrix at sampled fidelity: "sampled",
	// and the wall-clock ratio of each cell's exact twin to its sampled
	// run. New entries leave them empty; the fields stay so that merge
	// carries the recorded entries through unchanged.
	Fidelity       string  `json:"fidelity,omitempty"`
	SpeedupVsExact float64 `json:"speedup_vs_exact,omitempty"`
	Totals         Totals  `json:"totals"`
	Runs           []Run   `json:"runs"`
}

// File is the BENCH_results.json layout. The fleet list is owned by
// cmd/loadgen and carried through verbatim so either command can merge
// its entries without dropping the other's.
type File struct {
	Schema  int               `json:"schema"`
	Matrix  string            `json:"matrix"`
	Entries []Entry           `json:"entries"`
	Fleet   []json.RawMessage `json:"fleet,omitempty"`
}

func main() {
	flags.SetUsage(flag.CommandLine, "bench", "run the tracked end-to-end benchmark matrix and merge the entry into BENCH_results.json")
	out := flag.String("out", "BENCH_results.json", "results file to merge the entry into")
	label := flag.String("label", "current", "entry label (same label replaces in place)")
	quick := flag.Bool("quick", false, "CI-sized matrix: 8 processors, ppn {1,4}, 1 iteration")
	procs := flag.Int("procs", 0, "machine size (default 16, or 8 with -quick)")
	iters := flag.Int("iters", 0, "timed iterations per cell, best taken (default 3, or 1 with -quick)")
	note := flag.String("note", "", "free-form note stored with the entry")
	flag.Parse()

	if *procs == 0 {
		*procs = 16
		if *quick {
			*procs = 8
		}
	}
	if *iters == 0 {
		*iters = 3
		if *quick {
			*iters = 1
		}
	}
	ppns := []int{1, 2, 4}
	if *quick {
		ppns = []int{1, 4}
	}

	entry, err := benchMatrix(*procs, *iters, ppns)
	flags.Check("bench", err)
	entry.Label = *label
	entry.Quick = *quick
	entry.Note = *note
	entry.Date = time.Now().UTC().Format("2006-01-02T15:04:05Z")

	flags.Check("bench", merge(*out, entry))
	fmt.Printf("wrote %s entry %q: %.1f ns/ref, %.3g refs/sec, %.0f allocs/run, peak RSS %d MiB\n",
		*out, entry.Label, entry.Totals.NsPerRef, entry.Totals.RefsPerSec,
		entry.Totals.AllocsPerRun, entry.Totals.PeakRSSBytes>>20)
}

// benchMatrix times every cell of the Figure 2 matrix: each run builds a
// fresh machine and simulates the full trace, so the numbers cover the
// whole per-run path (construction, simulation, result extraction).
func benchMatrix(procs, iters int, ppns []int) (Entry, error) {
	entry := Entry{
		Go:     runtime.Version(),
		NumCPU: runtime.NumCPU(),
		Procs:  procs,
		Iters:  iters,
	}
	var totalNs, totalRefs, totalAllocs int64
	for _, a := range apps.Registry {
		tr := a.Generate(procs)
		s := tr.Summarize()
		refs := s.Reads + s.Writes
		for _, ppn := range ppns {
			cfg := config.Baseline(ppn, config.MP6)
			cfg.Procs = procs
			best, allocs, err := bestOf(iters, a.Name, cfg, tr)
			if err != nil {
				return entry, err
			}
			entry.Runs = append(entry.Runs, Run{
				App: a.Name, PPN: ppn, MP: cfg.Pressure.Label,
				Refs: refs, NsBest: best,
				NsPerRef: float64(best) / float64(refs),
				Allocs:   allocs,
			})
			totalNs += best
			totalRefs += refs
			totalAllocs += allocs
			fmt.Fprintf(os.Stderr, "%-12s ppn=%d  %8.1f ns/ref  %9d allocs\n",
				a.Name, ppn, float64(best)/float64(refs), allocs)
		}
	}
	entry.Totals = Totals{
		NsPerRef:     float64(totalNs) / float64(totalRefs),
		RefsPerSec:   float64(totalRefs) / (float64(totalNs) / 1e9),
		AllocsPerRun: float64(totalAllocs) / float64(len(entry.Runs)),
		PeakRSSBytes: peakRSS(),
	}
	return entry, nil
}

// bestOf runs one cell iters times and keeps the fastest wall clock and
// the lowest allocation count.
func bestOf(iters int, app string, cfg config.Machine, tr *trace.Trace) (int64, int64, error) {
	var best int64 = -1
	var allocs int64
	for it := 0; it < iters; it++ {
		ns, al, err := timeRun(app, cfg, tr)
		if err != nil {
			return 0, 0, err
		}
		if best < 0 || ns < best {
			best = ns
		}
		if it == 0 || al < allocs {
			allocs = al
		}
	}
	return best, allocs, nil
}

// timeRun measures one fresh-machine simulation: wall nanoseconds and
// heap allocation count (mallocs delta around the run).
func timeRun(app string, cfg config.Machine, tr *trace.Trace) (int64, int64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	m, err := machine.New(cfg.Params(tr.WorkingSet))
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", app, err)
	}
	res, err := m.Run(tr)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", app, err)
	}
	elapsed := time.Since(start).Nanoseconds()
	m.Release()
	runtime.ReadMemStats(&m1)
	_ = res
	return elapsed, int64(m1.Mallocs - m0.Mallocs), nil
}

// peakRSS reads the process high-water resident set from /proc (linux);
// 0 elsewhere.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// merge loads the results file (if any), replaces the entry with the same
// label or appends, and writes it back.
func merge(path string, e Entry) error {
	file := File{Schema: 1, Matrix: "figure2-mp6"}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	replaced := false
	for i := range file.Entries {
		if file.Entries[i].Label == e.Label {
			file.Entries[i] = e
			replaced = true
			break
		}
	}
	if !replaced {
		file.Entries = append(file.Entries, e)
	}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
