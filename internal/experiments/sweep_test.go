package experiments

import (
	"strings"
	"testing"

	"repro/internal/config"
)

func TestSweepSpecDefaults(t *testing.T) {
	var s SweepSpec
	if got := s.Points(); got != 14*3*5*1*1 {
		t.Fatalf("default points = %d", got)
	}
	s = SweepSpec{Apps: []string{"fft"}, ProcsPerNode: []int{1},
		Pressures: []config.Pressure{config.MP6}, DRAM: []float64{1, 2}}
	if got := s.Points(); got != 2 {
		t.Fatalf("points = %d, want 2", got)
	}
}

func TestSweepAndCSV(t *testing.T) {
	r := NewRunner()
	rows, err := r.Sweep(SweepSpec{
		Apps:         []string{"fft"},
		ProcsPerNode: []int{1, 4},
		Pressures:    []config.Pressure{config.MP6, config.MP87},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row.ExecNs <= 0 || row.RNMr <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.MP == "6%" && row.BusReplaceNs != 0 {
			t.Fatalf("replacement traffic at 6%% MP: %+v", row)
		}
	}
	var sb strings.Builder
	if err := WriteSweepCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want header+4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,procs_per_node,mp") {
		t.Fatalf("header %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != 16 {
			t.Fatalf("row has %d fields: %q", got, l)
		}
	}
}

func TestSweepUnknownApp(t *testing.T) {
	r := NewRunner()
	if _, err := r.Sweep(SweepSpec{Apps: []string{"nope"}}); err == nil {
		t.Fatal("expected error")
	}
}
