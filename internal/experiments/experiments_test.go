package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/machine"
)

// The Figure 2 claim: clustering reduces the read node miss rate for every
// application, 4-way more than 2-way on average.
func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	r := paperRunner()
	f, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 14 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	for _, row := range f.Rows {
		if !(row.Rel2 < 1.0) || !(row.Rel4 < 1.0) {
			t.Errorf("%s: clustering did not reduce RNMr (%v, %v)", row.App, row.Rel2, row.Rel4)
		}
	}
	if !(f.Mean4 < f.Mean2) || !(f.Mean2 < 1) {
		t.Fatalf("means out of order: 2-way %v, 4-way %v", f.Mean2, f.Mean4)
	}
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("rendering broken")
	}
}

// Traffic figures: per-application normalization puts the tallest bar at
// 100%, and 6%-MP bars carry no replacement traffic.
func TestTrafficFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	r := paperRunner()
	f, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	perApp := map[string]float64{}
	for _, b := range f.Bars {
		if b.MP == "6%" && b.Replace != 0 {
			t.Errorf("%s %dp at 6%%: replacement traffic %v", b.App, b.ProcsPerNode, b.Replace)
		}
		if tot := b.Total(); tot > perApp[b.App] {
			perApp[b.App] = tot
		}
	}
	if len(perApp) != 8 {
		t.Fatalf("figure 3 covers 8 applications, got %d", len(perApp))
	}
	for app, max := range perApp {
		if max < 0.999 || max > 1.001 {
			t.Errorf("%s: max bar %v, want 1.0", app, max)
		}
	}
	// Clustering reduces total (raw) traffic at 81% MP for the fig-3
	// group — the paper's consistent-winners group.
	raw := map[string][2]int64{}
	for _, b := range f.Bars {
		if b.MP == "81%" {
			v := raw[b.App]
			if b.ProcsPerNode == 1 {
				v[0] = b.TotalNs
			} else {
				v[1] = b.TotalNs
			}
			raw[b.App] = v
		}
	}
	for app, v := range raw {
		if v[1] >= v[0] {
			t.Errorf("%s: 4p traffic %d >= 1p traffic %d at 81%% MP", app, v[1], v[0])
		}
	}
}

func TestFigure4EightWayBars(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	r := paperRunner()
	f, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	eight := 0
	for _, b := range f.Bars {
		if b.AMWays == 8 {
			eight++
			if b.MP != "87%" {
				t.Errorf("8-way bar at %s MP", b.MP)
			}
		}
	}
	if eight != 12 { // 6 applications x {1p, 4p}
		t.Fatalf("8-way bars = %d, want 12", eight)
	}
	// The paper's conflict-miss explanation: at 87% MP, the 8-way AMs
	// carry less replacement traffic than the 4-way ones for the
	// unclustered machine, for every app in this group.
	repl := map[string][2]float64{}
	for _, b := range f.Bars {
		if b.MP != "87%" || b.ProcsPerNode != 1 {
			continue
		}
		v := repl[b.App]
		if b.AMWays == 4 {
			v[0] = b.Replace
		} else {
			v[1] = b.Replace
		}
		repl[b.App] = v
	}
	for app, v := range repl {
		if v[1] > v[0] {
			t.Errorf("%s: 8-way replacement traffic %.3f exceeds 4-way %.3f at 87%% MP",
				app, v[1], v[0])
		}
	}
}

func TestTable1(t *testing.T) {
	r := paperRunner()
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.OurWSKB == 0 || row.Reads == 0 {
			t.Fatalf("%s: empty row", row.App)
		}
	}
	var sb strings.Builder
	if err := WriteTable1(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "radix") {
		t.Fatal("table rendering broken")
	}
}

// Figure 5 shape: raising the pressure costs time, clustering recovers
// most of it, and the paper's named loser (LU-non) loses here too.
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	r := paperRunner()
	f, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Bars) != 42 {
		t.Fatalf("bars = %d, want 14x3", len(f.Bars))
	}
	exec := map[string]map[string]int64{}
	for _, b := range f.Bars {
		if exec[b.App] == nil {
			exec[b.App] = map[string]int64{}
		}
		exec[b.App][b.Label] = b.ExecNs
	}
	slower, recovered := 0, 0
	for app, e := range exec {
		if e["1p@81%"] > e["1p@50%"] {
			slower++
		}
		if e["4p@81%"] < e["1p@81%"] {
			recovered++
		}
		if app == "lu-n" && e["4p@81%"] < e["1p@81%"] {
			t.Error("lu-n should lose to node contention (paper's one exception)")
		}
	}
	if slower < 10 {
		t.Errorf("only %d/14 apps slower at 81%% than 50%% MP", slower)
	}
	if recovered < 9 {
		t.Errorf("only %d/14 apps recovered by clustering (paper: 13)", recovered)
	}
	var chart, table strings.Builder
	if err := f.Chart(&chart); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart.String(), "lu-n") || !strings.Contains(table.String(), "4p@81%") {
		t.Fatal("rendering broken")
	}
}

// The provisioned-node sensitivity: with 4x DRAM and 2x NC bandwidth,
// clustering is at par or better essentially everywhere (paper §4.3).
func TestSensitivityNodeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	r := paperRunner()
	s, err := r.SensitivityNode()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		if row.Slowdown > 0.05 {
			t.Errorf("%s: %+.1f%% slowdown despite provisioned node", row.App, 100*row.Slowdown)
		}
	}
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "4p vs 1p") {
		t.Fatal("rendering broken")
	}
}

// Halving the bus bandwidth must not make clustering less attractive for
// any application (paper §4.3).
func TestSensitivityBusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	r := paperRunner()
	ss, err := r.SensitivityBus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss[0].Rows {
		full, half := ss[0].Rows[i], ss[1].Rows[i]
		if half.Slowdown > full.Slowdown+0.01 {
			t.Errorf("%s: clustering less attractive with a slower bus (%+.1f%% vs %+.1f%%)",
				full.App, 100*half.Slowdown, 100*full.Slowdown)
		}
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner()
	cfg := baselineForTest()
	a, err := r.Run("fft", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("fft", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical runs must be memoized (same pointer)")
	}
}

// A configuration config.Machine.Params cannot size a machine from is an
// error from Run and RunTrace alike, never a divide-by-zero panic.
func TestRunRejectsIncompleteConfig(t *testing.T) {
	r := NewRunner()
	r.Procs = 8
	tr, err := r.Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cfg  config.Machine
		want string
	}{
		{config.Machine{ProcsPerNode: 1}, "memory pressure not set"},
		{config.Machine{Pressure: config.MP6, Topology: machine.TopologyRing}, "ProcsPerNode must be positive"},
	} {
		if _, err := r.Run("fft", c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
		if _, err := r.RunTrace(tr, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunTrace(%+v) err = %v, want %q", c.cfg, err, c.want)
		}
	}
}

// The runner resolves workload names through apps.Generate, so a
// micro-pattern runs like a registry application: its trace is the one
// apps.Micro(name, procs, 64, 8) builds, and Run gives the same result
// as RunTrace over that trace.
func TestRunnerRunsMicroWorkload(t *testing.T) {
	r := NewRunner()
	r.Procs = 8
	tr, err := r.Trace("micro-producer")
	if err != nil {
		t.Fatal(err)
	}
	if want := apps.Micro("micro-producer", 8, 64, 8); !bytes.Equal(tr.EncodeCompact(), want.EncodeCompact()) {
		t.Fatal("runner trace differs from apps.Micro's")
	}
	cfg := config.Baseline(2, config.MP6)
	res, err := r.Run("micro-producer", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 8
	direct, err := NewRunner().RunTrace(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 || !reflect.DeepEqual(res, direct) {
		t.Fatalf("Run: %d reads, exec %v; RunTrace: %d reads, exec %v", res.Reads, res.ExecTime, direct.Reads, direct.ExecTime)
	}
}
