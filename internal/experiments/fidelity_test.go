package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/machine"
)

// Accuracy regression tests for the sampled execution fidelity: every
// kernel runs in both fidelities on the two machines whose error
// envelopes are declared in fidelity.go (the paper's 16-processor bus
// and the 64-processor ring-of-clusters), the per-metric errors are
// asserted against the declared bounds, and the full comparison table
// is pinned as a golden file so any drift in the estimator's accuracy —
// improvement or regression — shows up as a reviewable diff.

// fidelityBusCfg is the 16-processor bus configuration the bus envelope
// was measured on.
func fidelityBusCfg() config.Machine {
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 16
	return cfg
}

// fidelityRingCfg is the 64-processor, 8-cluster ring configuration the
// ring envelope was measured on.
func fidelityRingCfg() config.Machine {
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 64
	cfg.Topology = machine.TopologyRing
	cfg.Clusters = 8
	return cfg
}

// fidelityMatrix runs every kernel on cfg in both fidelities and
// returns one comparison row per kernel, bounds drawn from the given
// envelope.
func fidelityMatrix(t *testing.T, r *Runner, cfg config.Machine, bounds map[string]FidelityBound) []FidelityRow {
	t.Helper()
	var exact, sampled []job
	for _, a := range apps.Registry {
		c := cfg
		c.Fidelity = config.Fidelity{Mode: machine.FidelityExact}
		exact = append(exact, job{a.Name, c})
		c.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
		sampled = append(sampled, job{a.Name, c})
	}
	eres, err := r.runAll(exact)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := r.runAll(sampled)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]FidelityRow, len(exact))
	for i := range exact {
		rows[i] = fidelityCompare(exact[i].app, exact[i].cfg.ProcsPerNode,
			eres[i], sres[i], bounds[exact[i].app])
	}
	return rows
}

func TestGoldenFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("fidelity accuracy matrix in -short mode")
	}
	r := NewRunner()
	var sb strings.Builder
	for _, m := range []struct {
		title  string
		cfg    config.Machine
		bounds map[string]FidelityBound
	}{
		{"16-processor bus", fidelityBusCfg(), fidelityBoundsBus16},
		{"64-processor ring, 8 clusters", fidelityRingCfg(), fidelityBoundsRing64},
	} {
		rows := fidelityMatrix(t, r, m.cfg, m.bounds)
		for _, row := range rows {
			if !row.Pass {
				t.Errorf("%s: %s outside declared envelope: exec %+.2f%% (bound %.0f%%), rnmr %+.2f%% bus %+.2f%% miss %+.2f%% (bound %.1f%%)",
					m.title, row.App, row.ExecErr*100, row.Bound.Exec*100,
					row.RNMrErr*100, row.BusErr*100, row.MissErr*100, row.Bound.Counts*100)
			}
		}
		fmt.Fprintf(&sb, "Sampled-fidelity error envelope: %s\n", m.title)
		f := FidelityCheck{Rows: rows}
		if err := f.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb)
	}
	checkGolden(t, "testdata/fidelity.golden", sb.String())
}

// TestFidelityJobsInvariance asserts sampled-mode results are
// byte-identical whether the matrix runs sequentially or fanned out
// across workers: sampling observes only simulated time, so worker
// scheduling must not leak into results.
func TestFidelityJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("jobs-invariance matrix in -short mode")
	}
	var jobsList []job
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 8
	cfg.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
	for _, name := range fidelityQuickApps {
		jobsList = append(jobsList, job{name, cfg})
	}
	seq := NewRunner()
	seq.Procs = 8
	seq.Jobs = 1
	sres, err := seq.runAll(jobsList)
	if err != nil {
		t.Fatal(err)
	}
	par := NewRunner()
	par.Procs = 8
	par.Jobs = 8
	pres, err := par.runAll(jobsList)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobsList {
		if !reflect.DeepEqual(sres[i], pres[i]) {
			t.Errorf("%s: sampled result differs between -jobs 1 and -jobs 8:\nseq: %+v\npar: %+v",
				jobsList[i].app, sres[i], pres[i])
		}
	}
}

// FuzzFidelityGeometry feeds arbitrary sampling geometries through the
// config layer and asserts the machine either rejects the geometry
// cleanly at construction or completes the run with the invariants the
// estimator guarantees regardless of geometry: reference counts are
// trace-determined (reads exactly match the exact run), execution time
// is positive, and the fidelity report is internally consistent.
func FuzzFidelityGeometry(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0))              // defaults
	f.Add(int64(-1), int64(1), int64(1))             // no warmup, tiny window, clamped period
	f.Add(int64(1000), int64(5000), int64(64000))    // previous defaults
	f.Add(int64(16000), int64(16000), int64(256000)) // current defaults
	f.Add(int64(1), int64(1), int64(1<<40))          // near-zero coverage
	f.Add(int64(1<<40), int64(1), int64(1))          // warmup dominates; period clamps below warmup+window
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 8
	r := NewRunner()
	r.Procs = 8
	exact, err := r.Run("fft", cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, warm, win, period int64) {
		c := cfg
		c.Fidelity = config.Fidelity{Mode: machine.FidelitySampled,
			WarmupNs: warm, WindowNs: win, PeriodNs: period}
		res, err := r.Run("fft", c)
		if err != nil {
			// The only acceptable failure is a clean geometry rejection
			// from machine construction.
			if !strings.Contains(err.Error(), "fidelity") {
				t.Fatalf("non-geometry failure for warmup=%d window=%d period=%d: %v", warm, win, period, err)
			}
			return
		}
		if res.Reads != exact.Reads || res.Writes() != exact.Writes() {
			t.Errorf("reference counts drifted: sampled %d reads / %d writes, exact %d / %d",
				res.Reads, res.Writes(), exact.Reads, exact.Writes())
		}
		if res.ExecTime <= 0 {
			t.Errorf("non-positive execution time %v", res.ExecTime)
		}
		rep := res.Fidelity
		if rep == nil {
			t.Fatal("sampled run returned no fidelity report")
		}
		if rep.Coverage < 0 || rep.Coverage > 1 {
			t.Errorf("coverage %v outside [0,1]", rep.Coverage)
		}
		if rep.Windows < 0 {
			t.Errorf("negative window count %d", rep.Windows)
		}
	})
}
