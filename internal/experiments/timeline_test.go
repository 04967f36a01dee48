package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// The timeline golden pins what `cmd/inspect -timeline` emits (both the
// sparkline text and the raw per-window CSV) for the 8-processor Figure 2
// machine at the two clustering extremes. Sampling is deterministic in
// simulated time, so this file is as stable as the figure goldens.
func TestGoldenTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation matrix in -short mode")
	}
	r := NewRunner()
	r.Procs = 8
	r.SampleWindow = 100000
	rows, err := r.Inspect([]string{"fft"}, []config.Machine{
		config.Baseline(1, config.MP50),
		config.Baseline(4, config.MP50),
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTimeline(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/timeline.golden", sb.String())
}

func TestSparkline(t *testing.T) {
	cases := []struct {
		vals []float64
		want string
	}{
		{nil, ""},
		{[]float64{0, 0, 0}, "▁▁▁"},  // all-zero series stays at the baseline
		{[]float64{1, 1}, "██"},      // max maps to the full block
		{[]float64{0, 4, 8}, "▁▄█"},  // linear ramp
		{[]float64{0.0001, 8}, "▂█"}, // tiny non-zero values stay visible
		{[]float64{7.999, 8}, "▇█"},  // just-below-max stays below the full block
	}
	for _, c := range cases {
		if got := sparkline(c.vals); got != c.want {
			t.Errorf("sparkline(%v) = %q, want %q", c.vals, got, c.want)
		}
	}
}

func TestDownsample(t *testing.T) {
	// 128 windows pool into 64 cells of 2, keeping each pair's max.
	vals := make([]float64, 2*sparkCells)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	vals[17] = 99
	out := downsample(vals)
	if len(out) != sparkCells {
		t.Fatalf("len = %d, want %d", len(out), sparkCells)
	}
	if out[8] != 99 { // windows 16,17 -> cell 8
		t.Errorf("cell 8 = %g, want pooled max 99", out[8])
	}
	// Short series pass through untouched.
	short := []float64{1, 2, 3}
	if got := downsample(short); &got[0] != &short[0] {
		t.Error("short series was copied")
	}
}
