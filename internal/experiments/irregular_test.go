package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// The irregular/allocator study's golden pins both topologies' sweeps at
// the shared 8-processor test size.
func TestGoldenFigure2Irregular(t *testing.T) {
	if testing.Short() {
		t.Skip("irregular matrix in -short mode")
	}
	f, err := golden8().Figure2Irregular()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.Write(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/figure2irregular.golden", sb.String())
}

// The study is byte-identical for any worker count, like every other
// artifact (the -jobs invariance contract): a fresh one-worker runner
// renders what golden8's eight workers do.
func TestFigure2IrregularJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("irregular matrix twice in -short mode")
	}
	t.Parallel()
	render := func(r *Runner) string {
		f, err := r.Figure2Irregular()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := f.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render(runner8(1)) != render(golden8()) {
		t.Fatal("fig2irregular differs between -jobs 1 and -jobs 8")
	}
}

// RunTrace over a workload's wire-exported trace reproduces Run's result
// exactly — the contract behind comasrv's guarantee that simulating by
// trace_ref is byte-identical to simulating the generated workload.
func TestRunTraceMatchesRun(t *testing.T) {
	r := NewRunner()
	r.Procs = 8
	cfg := config.Baseline(2, config.MP50)
	direct, err := r.Run("alloc-churn", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := r.Trace("alloc-churn")
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire format, as an upload would.
	decoded, err := trace.DecodeCompact(tr.EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, err := r.RunTrace(decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaTrace) {
		t.Fatalf("RunTrace result diverges from Run:\nrun:      %+v\nruntrace: %+v", direct, viaTrace)
	}
}

// RunTrace rejects a trace whose processor count disagrees with the
// configuration instead of running a mis-sized machine.
func TestRunTraceProcsMismatch(t *testing.T) {
	r := NewRunner()
	tr, err := r.TraceAt("pchase", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 8
	if _, err := r.RunTrace(tr, cfg); err == nil {
		t.Fatal("expected a processor-count mismatch error")
	}
}
