package experiments_test

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/report"
)

// TestCommittedResults regenerates every file under results/ on the
// shared 16-processor runner, as the command noted beside it writes the
// file, and compares byte for byte: the committed results are the
// goldens of the paper's configuration. -update rewrites them. A file
// there that this test does not produce fails it; README.md is the one
// hand-written file.
func TestCommittedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regeneration in -short mode")
	}
	r := experiments.PaperRunner()
	artifact := func(name string, chart bool) func(io.Writer) error {
		return func(w io.Writer) error { return experiments.RenderArtifact(w, r, name, chart) }
	}
	files := []struct {
		name   string
		render func(io.Writer) error
	}{
		// go run ./cmd/experiments
		{"experiments.txt", func(w io.Writer) error {
			for _, name := range experiments.Artifacts() {
				if err := experiments.RenderArtifact(w, r, name, false); err != nil {
					return err
				}
			}
			return nil
		}},
		// go run ./cmd/experiments -only figN -chart
		{"figure3-chart.txt", artifact("fig3", true)},
		{"figure4-chart.txt", artifact("fig4", true)},
		{"figure5-chart.txt", artifact("fig5", true)},
		// go run ./cmd/experiments -only latency
		{"latency.txt", artifact("latency", false)},
		// go run ./cmd/report
		{"report.html", func(w io.Writer) error {
			d, err := report.Collect(r)
			if err != nil {
				return err
			}
			return report.Render(w, d)
		}},
		// go run ./cmd/sweep -apps fft,radix,barnes -ppn 1,2,4 -mp 6%,50%,81%,87%
		{"sweep.csv", func(w io.Writer) error {
			rows, err := r.Sweep(experiments.SweepSpec{
				Apps:         []string{"fft", "radix", "barnes"},
				ProcsPerNode: []int{1, 2, 4},
				Pressures:    []config.Pressure{config.MP6, config.MP50, config.MP81, config.MP87},
			})
			if err != nil {
				return err
			}
			return experiments.WriteSweepCSV(w, rows)
		}},
	}
	produced := map[string]bool{"README.md": true}
	for _, f := range files {
		produced[f.name] = true
		t.Run(f.name, func(t *testing.T) {
			var got strings.Builder
			if err := f.render(&got); err != nil {
				t.Fatal(err)
			}
			experiments.CheckGolden(t, filepath.Join(experiments.ResultsDir, f.name), got.String())
		})
	}
	entries, err := os.ReadDir(experiments.ResultsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !produced[e.Name()] {
			t.Errorf("results/%s is not produced by TestCommittedResults: generate it here or delete it", e.Name())
		}
	}
}

// The §4.2 thresholds are the one committed result that needs no
// simulation, so -short mode pins them too, as results/experiments.txt
// carries them.
func TestCommittedThresholds(t *testing.T) {
	var sb strings.Builder
	if err := experiments.RenderArtifact(&sb, experiments.PaperRunner(), "thresholds", false); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(experiments.ResultsDir, "experiments.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), sb.String()) {
		t.Errorf("results/experiments.txt lacks the thresholds table as rendered:\n%s", sb.String())
	}
}
