package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The paper's own results — Table 1, Figures 2-5, the §4.2 thresholds,
// the §4.3 sensitivity studies, the latency study, the HTML report and a
// sample sweep, all on its 16-processor machine — are pinned byte for
// byte by TestCommittedResults against the files under results/. The
// TestGoldenFigure2-5 and TestGoldenSensitivity tests below check each
// study's sections of those files on their own, so a drift names every
// study it touches where the whole-file check stops at its first line.
//
// The golden files under testdata/ pin what results/ does not cover:
// figure2irregular (the extra workload families, on golden8), the
// reduced-size figure2scaled ring study and the timeline.
// Regenerate either set after an intended change with:
//
//	go test ./internal/experiments -run 'TestCommittedResults|TestGolden' -update
//
// An 8-processor machine is not cheaper than the paper's: kernels have
// fixed problem sizes, so the 14 paper apps' 8-processor traces carry
// 9.27M references against 9.32M at 16 (fft: 331,520 at both). Kernel
// generation is fixed-seed and the simulator deterministic, so the files
// are stable per platform (libm rounding could in principle drift across
// CPU architectures; CI and the goldens are both amd64).
var update = flag.Bool("update", false, "rewrite golden files in testdata/ and results/")

// resultsDir holds the committed outputs results/README.md describes.
const resultsDir = "../../results"

// paperRunner is the paper's 16-processor machine, shared by every test
// that simulates one of its studies, so each (app, config) simulates
// once per test binary. Jobs is fixed at 8 so that the pool really fans
// out even on a 1-CPU host: the -jobs determinism tests compare a fresh
// Jobs: 1 runner against it.
var paperRunner = sync.OnceValue(func() *Runner {
	r := NewRunner()
	r.Jobs = 8
	return r
})

// golden8 is the shared 8-processor runner of the irregular-family
// golden and its -jobs determinism test, at the same Jobs as paperRunner.
var golden8 = sync.OnceValue(func() *Runner {
	r := NewRunner()
	r.Procs = 8
	r.Jobs = 8
	return r
})

// checkGolden compares got with the golden file at path (relative to
// this package) byte for byte, reporting the first line that differs, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		n, g, w := firstDiff(got, string(want))
		t.Errorf("%s differs from its regeneration at line %d:\n got: %s\nwant: %s\nIf the change is intended, rerun with -update and review the diff.",
			path, n, g, w)
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and that line of each ("<end of file>" past the last).
func firstDiff(got, want string) (n int, g, w string) {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	for i := 0; ; i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			return i + 1, line(gl, i), line(wl, i)
		}
	}
}

// checkResultsSection renders artifact on the shared paper runner and
// compares it with the section of results/<file> that begins with the
// same heading line, reporting the file's first differing line. Under
// -update it skips: TestCommittedResults rewrites the files whole.
func checkResultsSection(t *testing.T, file, artifact string, chart bool) {
	t.Helper()
	if testing.Short() {
		t.Skip("golden regeneration in -short mode")
	}
	if *update {
		t.Skip("TestCommittedResults rewrites results/")
	}
	var sb strings.Builder
	if err := RenderArtifact(&sb, paperRunner(), artifact, chart); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	raw, err := os.ReadFile(filepath.Join(resultsDir, file))
	if err != nil {
		t.Fatal(err)
	}
	committed := "\n" + string(raw)
	heading, _, _ := strings.Cut(got, "\n")
	i := strings.Index(committed, "\n"+heading+"\n")
	if i < 0 {
		t.Errorf("results/%s has no %s section headed %q", file, artifact, heading)
		return
	}
	i++ // the section starts after the newline
	want := committed[i:min(len(committed), i+len(got))]
	if got != want {
		n, g, w := firstDiff(got, want)
		t.Errorf("results/%s: the %s section differs from its regeneration at line %d:\n got: %s\nwant: %s\nIf the change is intended, rerun TestCommittedResults with -update and review the diff.",
			file, artifact, strings.Count(committed[:i], "\n")+n-1, g, w)
	}
}

func TestGoldenFigure2(t *testing.T) {
	checkResultsSection(t, "experiments.txt", "fig2", false)
}

func TestGoldenFigure3(t *testing.T) {
	checkResultsSection(t, "experiments.txt", "fig3", false)
	checkResultsSection(t, "figure3-chart.txt", "fig3", true)
}

func TestGoldenFigure4(t *testing.T) {
	checkResultsSection(t, "experiments.txt", "fig4", false)
	checkResultsSection(t, "figure4-chart.txt", "fig4", true)
}

func TestGoldenFigure5(t *testing.T) {
	checkResultsSection(t, "experiments.txt", "fig5", false)
	checkResultsSection(t, "figure5-chart.txt", "fig5", true)
}

// The four §4.3 sensitivity studies: DRAM, node-controller and bus
// bandwidth, and memory pressure.
func TestGoldenSensitivity(t *testing.T) {
	for _, name := range []string{"sens-dram", "sens-node", "sens-bus", "sens-mp"} {
		checkResultsSection(t, "experiments.txt", name, false)
	}
}
