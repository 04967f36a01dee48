package report

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// Rendering smoke test on hand-built data (the full Collect path is
// exercised by TestCollectAndRender below).
func TestRenderSynthetic(t *testing.T) {
	d := &Data{
		Table1: []experiments.Table1Row{{App: "fft", PaperProblem: "1M", OurProblem: "4096", OurWSKB: 192, Reads: 10, Writes: 5}},
		Fig2: &experiments.Fig2{
			Rows:  []experiments.Fig2Row{{App: "fft", RNMr1: 0.03, Rel2: 0.8, Rel4: 0.6}},
			Mean2: 0.8, Mean4: 0.6,
		},
		Fig3: &experiments.TrafficFigure{Figure: 3, Bars: []experiments.TrafficBar{
			{App: "fft", ProcsPerNode: 1, MP: "6%", AMWays: 4, Read: 0.5, Write: 0.2, Replace: 0.1},
		}},
		Fig4: &experiments.TrafficFigure{Figure: 4, Bars: []experiments.TrafficBar{
			{App: "barnes", ProcsPerNode: 4, MP: "87%", AMWays: 8, Read: 0.3, Write: 0.1},
		}},
		Fig5: &experiments.Fig5{Bars: []experiments.Fig5Bar{
			{App: "fft", Label: "1p@50%", Busy: 0.2, SLC: 0.1, AM: 0.3, Remote: 0.3, Sync: 0.1},
		}},
		Thresholds: analysis.PaperTable(),
	}
	var sb strings.Builder
	if err := Render(&sb, d); err != nil {
		t.Fatal(err)
	}
	html := sb.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "Figure 2", "fft", "barnes", "49/64", "svg", "rect",
		"80.0%", // Fig2 Mean2
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(html, "ZgotmplZ") {
		t.Error("template escaped the SVG payload")
	}
}

// Full pipeline on a fresh runner: Collect gathers every study and Render
// lays each one out, and a second Collect on the same runner reuses the
// memoised results and renders the same page. The paper's exact page is
// pinned byte for byte by experiments' TestCommittedResults
// (results/report.html), so this runner samples, at under half the cost.
func TestCollectAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full collection in -short mode")
	}
	r := experiments.NewRunner()
	r.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
	var sims atomic.Int64
	r.OnSimulate = func(string, config.Machine) { sims.Add(1) }
	render := func() string {
		t.Helper()
		d, err := Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := Render(&sb, d); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	html := render()
	if len(html) < 10_000 {
		t.Fatalf("suspiciously small report (%d bytes)", len(html))
	}
	for _, want := range append([]string{
		"Table 1", "Figure 2", "Figures 3 &amp; 4", "Figure 5", "Replication thresholds",
	}, experiments.Apps()...) {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	first := sims.Load()
	if first == 0 {
		t.Fatal("Collect simulated nothing on a fresh runner")
	}
	if again := render(); again != html {
		t.Error("a second Collect on the same runner rendered a different page")
	}
	if n := sims.Load() - first; n != 0 {
		t.Errorf("a second Collect simulated %d runs; want every result reused", n)
	}
}
