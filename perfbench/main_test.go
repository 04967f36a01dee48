package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// quickOptions is a smoke-sized run with the pinned digests.
func quickOptions(t *testing.T, workload string, traced bool) options {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: time.Second, trace: traced,
		quick: true, spanDir: t.TempDir(), log: io.Discard}
	if testing.Verbose() {
		o.log = os.Stderr
	}
	if err := json.Unmarshal(pinnedDigests, &o.pins); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	o.spec = spec
	return o
}

// TestEveryWorkloadReportsEveryMetric runs each workload of
// BENCHMARK.json briefly, untraced and traced. Every check must pass and
// the result must carry exactly the declared metrics with their units.
// An end-to-end metric must be positive. A traced run must measure
// exactly the per-layer metrics whose annotation in layers.go lists the
// workload, so a layer that stops reporting fails here.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	s := quickOptions(t, "", false).spec
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, _, err := execute(quickOptions(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
				if !traced {
					continue
				}
				target, ok := targetOf(m.Name)
				if !ok {
					t.Errorf("%s: no annotation in layers.go", m.Name)
					continue
				}
				exercised := strings.Contains(" "+target.workloads+" ", " "+w.Name+" ")
				if res.measured[m.Name] != exercised {
					t.Errorf("%s: %s measured=%v, layers.go lists it for %q", w.Name, m.Name, res.measured[m.Name], target.workloads)
				}
			}
		}
	}
}

// TestWrongPinnedDigestFails checks the correctness gate: one wrong
// pinned digest must fail exactly that simulation, every matrix.
func TestWrongPinnedDigestFails(t *testing.T) {
	o := quickOptions(t, "sim-exact", false)
	o.pins["exact/bus16-p1-mp6/fft"] = "0000"
	res, _, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 {
		t.Fatalf("wrong pin passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if res.Failed*int64(len(quickApps)*len(simCells())) != res.Attempted {
		t.Errorf("failed=%d of attempted=%d, want one failure per matrix", res.Failed, res.Attempted)
	}
}
