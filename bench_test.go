// Benchmarks that regenerate the paper's tables and figures, one per
// artifact. They report reproduction metrics (relative miss rates, traffic
// ratios, how many applications match the paper's claims) via
// b.ReportMetric; wall time mostly measures the first, un-memoized
// iteration.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// runner memoizes traces and simulation results across all benchmarks in
// this binary (safe for the concurrent matrices the drivers fan out).
// Its RunTrace is the un-memoized build-run-release of one configuration.
var runner = experiments.NewRunner()

// workload generates a registry application's or a micro-pattern
// workload's trace (apps.Generate).
func workload(tb testing.TB, name string, procs int) *trace.Trace {
	tb.Helper()
	tr, err := apps.Generate(name, procs)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkSimFigure2Matrix is the tracked whole-simulation benchmark:
// the full Figure 2 run matrix (14 apps x ppn {1,2,4} at 6% MP, 16
// processors) on a fresh un-memoized single-worker runner each
// iteration, so elapsed time is pure simulator throughput. The ns/ref
// and refs/sec metrics are what cmd/bench records in BENCH_results.json
// and what the CI bench job gates on.
func BenchmarkSimFigure2Matrix(b *testing.B) {
	// References processed per matrix iteration: each app simulates once
	// per clustering degree.
	var perIter int64
	for _, name := range apps.Names() {
		s := workload(b, name, 16).Summarize()
		perIter += 3 * (s.Reads + s.Writes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		r.Jobs = 1
		if _, err := r.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(perIter) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/ref")
	b.ReportMetric(total/b.Elapsed().Seconds(), "refs/sec")
}

// BenchmarkSimFigure2Sampled is the tracked sampled-fidelity benchmark:
// the same Figure 2 matrix as BenchmarkSimFigure2Matrix but with the
// runner defaulting every configuration to SMARTS-style sampled
// execution (default 16000/16000/256000ns geometry). The ratio of this
// benchmark's ns/ref to BenchmarkSimFigure2Matrix's is the measured
// fast-forward speedup; CI gates both so a regression in either the
// exact or the sampled path is caught.
func BenchmarkSimFigure2Sampled(b *testing.B) {
	var perIter int64
	for _, name := range apps.Names() {
		s := workload(b, name, 16).Summarize()
		perIter += 3 * (s.Reads + s.Writes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		r.Jobs = 1
		r.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
		if _, err := r.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(perIter) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/ref")
	b.ReportMetric(total/b.Elapsed().Seconds(), "refs/sec")
}

// BenchmarkSimRing64 is the tracked ring-topology benchmark: one
// 64-processor simulation (32 nodes in 16 clusters, scaled pressure) on
// the hierarchical fabric, un-memoized, so elapsed time is pure ring
// simulator throughput — cluster-bus arbitration, link hops and
// two-level directory maintenance included. CI's bench job gates its
// ns/ref alongside BenchmarkSimFigure2Matrix.
func BenchmarkSimRing64(b *testing.B) {
	tr := workload(b, "fft", 64)
	s := tr.Summarize()
	perIter := s.Reads + s.Writes
	cfg := config.Baseline(2, config.MP50)
	cfg.Procs = 64
	cfg.ScalePressure = true
	cfg.Topology = "ring"
	cfg.Clusters = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunTrace(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(perIter) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/ref")
	b.ReportMetric(total/b.Elapsed().Seconds(), "refs/sec")
}

// freshFigure2 regenerates Figure 2 on a fresh un-memoized 8-processor
// runner with the given pool width, so the benchmark measures real
// simulation wall clock rather than cache hits.
func freshFigure2(b *testing.B, jobs int) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		r.Procs = 8
		r.Jobs = jobs
		if _, err := r.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Jobs1 vs BenchmarkFigure2JobsN: the ratio of these two
// is the experiment engine's parallel speedup on this machine (output is
// byte-identical either way).
func BenchmarkFigure2Jobs1(b *testing.B) { freshFigure2(b, 1) }

func BenchmarkFigure2JobsN(b *testing.B) { freshFigure2(b, runtime.NumCPU()) }

// BenchmarkTable1Workloads generates every Table 1 workload trace.
func BenchmarkTable1Workloads(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = runner.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "apps")
	var refs int64
	for _, r := range rows {
		refs += r.Reads + r.Writes
	}
	b.ReportMetric(float64(refs), "refs")
}

// BenchmarkFig2RelativeRNMr regenerates Figure 2 and reports the headline
// averages (paper: 82% for 2-way, 62% for 4-way clustering).
func BenchmarkFig2RelativeRNMr(b *testing.B) {
	var f *experiments.Fig2
	for i := 0; i < b.N; i++ {
		var err error
		f, err = runner.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*f.Mean2, "relRNMr2way%")
	b.ReportMetric(100*f.Mean4, "relRNMr4way%")
	improved := 0
	for _, r := range f.Rows {
		if r.Rel4 < 1 {
			improved++
		}
	}
	b.ReportMetric(float64(improved), "apps-improved/14")
}

// BenchmarkFig3Traffic regenerates Figure 3 and reports how many of the
// eight applications see lower total traffic with 4-processor nodes at
// 87% MP (the paper's consistent-winner group: all eight).
func BenchmarkFig3Traffic(b *testing.B) {
	var f *experiments.TrafficFigure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = runner.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(trafficWinners(f, "87%")), "cluster-wins/8")
	b.ReportMetric(float64(trafficWinners(f, "81%")), "cluster-wins81/8")
}

// trafficWinners counts applications whose 4p bar is lower than their 1p
// bar at the given pressure (4-way AMs only).
func trafficWinners(f *experiments.TrafficFigure, mp string) int {
	tot := map[string][2]float64{}
	for _, bar := range f.Bars {
		if bar.MP != mp || bar.AMWays != 4 {
			continue
		}
		v := tot[bar.App]
		if bar.ProcsPerNode == 1 {
			v[0] = bar.Total()
		} else {
			v[1] = bar.Total()
		}
		tot[bar.App] = v
	}
	wins := 0
	for _, v := range tot {
		if v[1] < v[0] {
			wins++
		}
	}
	return wins
}

// BenchmarkFig4ConflictMisses regenerates Figure 4 and reports how much
// 8-way associativity cuts the 87%-MP traffic of the conflict-sensitive
// group (the paper attributes their high-pressure blowup to conflict
// misses in the 4-way attraction memories).
func BenchmarkFig4ConflictMisses(b *testing.B) {
	var f *experiments.TrafficFigure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = runner.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	var t4, t8 float64
	for _, bar := range f.Bars {
		if bar.MP != "87%" || bar.ProcsPerNode != 1 {
			continue
		}
		if bar.AMWays == 4 {
			t4 += float64(bar.TotalNs)
		} else {
			t8 += float64(bar.TotalNs)
		}
	}
	if t4 > 0 {
		b.ReportMetric(100*t8/t4, "8way-traffic-vs-4way%")
	}
	b.ReportMetric(float64(trafficWinners(f, "81%")), "cluster-wins81/6")
	b.ReportMetric(float64(trafficWinners(f, "87%")), "cluster-wins87/6")
}

// BenchmarkFig5ExecutionTime regenerates Figure 5 and reports how many
// applications run faster with 4-way clustering than with 1-processor
// nodes at 81% MP (paper: 13 of 14; only LU-non loses to node contention).
func BenchmarkFig5ExecutionTime(b *testing.B) {
	var f *experiments.Fig5
	for i := 0; i < b.N; i++ {
		var err error
		f, err = runner.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	exec := map[string][2]int64{}
	for _, bar := range f.Bars {
		v := exec[bar.App]
		switch bar.Label {
		case "1p@81%":
			v[0] = bar.ExecNs
		case "4p@81%":
			v[1] = bar.ExecNs
		}
		exec[bar.App] = v
	}
	wins := 0
	for _, v := range exec {
		if v[1] < v[0] {
			wins++
		}
	}
	b.ReportMetric(float64(wins), "cluster-wins/14")
}

// BenchmarkSensitivityDRAM reproduces §4.3's DRAM-bandwidth study.
func BenchmarkSensitivityDRAM(b *testing.B) {
	var ss []*experiments.Sens
	for i := 0; i < b.N; i++ {
		var err error
		ss, err = runner.SensitivityDRAM()
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, s := range ss {
		degraded := 0
		for _, r := range s.Rows {
			if r.Slowdown > 0.05 {
				degraded++
			}
		}
		unit := "degraded@1x/14"
		if i == 1 {
			unit = "degraded@2x/14"
		}
		b.ReportMetric(float64(degraded), unit)
	}
}

// BenchmarkSensitivityNode reproduces §4.3's provisioned-node study
// (4x DRAM + 2x node controller: clustering should be at least on par
// everywhere except LU-non).
func BenchmarkSensitivityNode(b *testing.B) {
	var s *experiments.Sens
	for i := 0; i < b.N; i++ {
		var err error
		s, err = runner.SensitivityNode()
		if err != nil {
			b.Fatal(err)
		}
	}
	atPar := 0
	for _, r := range s.Rows {
		if r.Slowdown <= 0.05 {
			atPar++
		}
	}
	b.ReportMetric(float64(atPar), "at-par/14")
}

// BenchmarkSensitivityBus reproduces §4.3's halved-bus study: slower
// global buses should make clustering (which reduces bus traffic) more
// attractive.
func BenchmarkSensitivityBus(b *testing.B) {
	var ss []*experiments.Sens
	for i := 0; i < b.N; i++ {
		var err error
		ss, err = runner.SensitivityBus()
		if err != nil {
			b.Fatal(err)
		}
	}
	improvedByHalving := 0
	for i := range ss[0].Rows {
		if ss[1].Rows[i].Slowdown < ss[0].Rows[i].Slowdown {
			improvedByHalving++
		}
	}
	b.ReportMetric(float64(improvedByHalving), "more-attractive/14")
}

// BenchmarkSensitivityPressure reproduces §4.3's 6%-vs-50% MP comparison
// (paper: FFT the most sensitive at 4.2%).
func BenchmarkSensitivityPressure(b *testing.B) {
	var rows []experiments.PressureRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = runner.SensitivityPressure()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "fft" {
			b.ReportMetric(100*r.Gain, "fft-50%-penalty%")
		}
	}
}

// BenchmarkAblationInclusion compares the inclusive hierarchy against the
// non-inclusive extension (paper §4.2 points to [9, 2]: breaking inclusion
// softens the conflict-miss blowup at very high pressure, since SLC
// contents survive AM replacement).
func BenchmarkAblationInclusion(b *testing.B) {
	apps := []string{"barnes", "raytrace", "volrend"}
	var incl, nonIncl float64
	for i := 0; i < b.N; i++ {
		incl, nonIncl = 0, 0
		for _, app := range apps {
			cfg := config.Baseline(1, config.MP87)
			res, err := runner.Run(app, cfg)
			if err != nil {
				b.Fatal(err)
			}
			incl += float64(res.ExecTime)
			cfg.Inclusive = false
			res, err = runner.Run(app, cfg)
			if err != nil {
				b.Fatal(err)
			}
			nonIncl += float64(res.ExecTime)
		}
	}
	if incl > 0 {
		b.ReportMetric(100*nonIncl/incl, "noninclusive-exec-vs-inclusive%")
	}
}

// BenchmarkAblationReplacement switches off the protocol's replacement
// design choices one at a time (DESIGN.md §5) at 87% MP, where
// replacement behaviour dominates, and reports the traffic cost of losing
// each: the Shared-first victim priority, ownership promotion, and the
// accept-based receiver priority.
func BenchmarkAblationReplacement(b *testing.B) {
	apps := []string{"fft", "lu-c", "radix"}
	type variant struct {
		name string
		mut  func(*config.Machine)
	}
	variants := []variant{
		{"baseline", func(*config.Machine) {}},
		{"lru-victims", func(c *config.Machine) { c.Policy.VictimSharedFirst = false }},
		{"no-promote", func(c *config.Machine) { c.Policy.PromoteOwnership = false }},
		{"no-accept-priority", func(c *config.Machine) { c.Policy.AcceptPriority = false }},
	}
	totals := make([]float64, len(variants))
	for i := 0; i < b.N; i++ {
		for vi := range totals {
			totals[vi] = 0
		}
		for _, app := range apps {
			for vi, v := range variants {
				cfg := config.Baseline(1, config.MP87)
				v.mut(&cfg)
				res, err := runner.Run(app, cfg)
				if err != nil {
					b.Fatal(err)
				}
				totals[vi] += float64(res.BusTotal())
			}
		}
	}
	for vi := 1; vi < len(variants); vi++ {
		if totals[0] > 0 {
			b.ReportMetric(100*totals[vi]/totals[0], variants[vi].name+"-traffic%")
		}
	}
}

// BenchmarkAblationWriteBuffer sweeps the release-consistency write-buffer
// depth (the paper fixes 10 entries) on the most store-intensive
// workload.
func BenchmarkAblationWriteBuffer(b *testing.B) {
	depths := []int{1, 2, 10, 32}
	execs := make([]float64, len(depths))
	var tr *trace.Trace
	for i := 0; i < b.N; i++ {
		var err error
		tr, err = runner.Trace("radix")
		if err != nil {
			b.Fatal(err)
		}
		for di, d := range depths {
			params := config.Baseline(1, config.MP50).Params(tr.WorkingSet)
			params.WriteBufferDepth = d
			m, err := machine.New(params)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			execs[di] = float64(res.ExecTime)
		}
	}
	b.ReportMetric(100*execs[0]/execs[2], "depth1-exec-vs-depth10%")
	b.ReportMetric(100*execs[3]/execs[2], "depth32-exec-vs-depth10%")
}

// BenchmarkAblationUpdate compares the paper's invalidation protocol
// against a write-update variant (the trade-off explored by the adaptive
// update literature the paper cites): update wins on producer/consumer
// patterns, invalidation on write-then-rewrite data.
func BenchmarkAblationUpdate(b *testing.B) {
	apps := []string{"micro-producer", "ocean-c", "radix"}
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			tr := workload(b, app, 16)
			inval := config.Baseline(1, config.MP50)
			rInval, err := runner.RunTrace(tr, inval)
			if err != nil {
				b.Fatal(err)
			}
			upd := inval
			upd.Policy.WriteUpdate = true
			rUpd, err := runner.RunTrace(tr, upd)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(100*float64(rUpd.ExecTime)/float64(rInval.ExecTime),
					app+"-update-exec%")
			}
		}
	}
}

// BenchmarkAblationScale verifies the central clustering conclusion
// survives problem-size changes: the 4-way relative RNMr at 6% MP is
// computed at half-size and double-size problems (every cache rescales
// with the working set, per the methodology).
func BenchmarkAblationScale(b *testing.B) {
	names := []string{"fft", "barnes", "radix"}
	scales := []apps.Scale{apps.ScaleSmall, apps.ScaleLarge}
	rel := make([]float64, len(scales))
	for i := 0; i < b.N; i++ {
		for si, sc := range scales {
			var sum float64
			for _, name := range names {
				tr, err := apps.GenerateScaled(name, 16, sc)
				if err != nil {
					b.Fatal(err)
				}
				r1, err := runner.RunTrace(tr, config.Baseline(1, config.MP6))
				if err != nil {
					b.Fatal(err)
				}
				r4, err := runner.RunTrace(tr, config.Baseline(4, config.MP6))
				if err != nil {
					b.Fatal(err)
				}
				sum += r4.RNMr() / r1.RNMr()
			}
			rel[si] = 100 * sum / float64(len(names))
		}
	}
	b.ReportMetric(rel[0], "relRNMr4way-small%")
	b.ReportMetric(rel[1], "relRNMr4way-large%")
}

// BenchmarkLatencyTail reports the mechanism behind Figure 5: the mean
// p99 read latency across applications at 81% MP, unclustered vs 4-way
// clustered (remote accesses live in the tail).
func BenchmarkLatencyTail(b *testing.B) {
	var rows []experiments.LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = runner.Latency()
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum [2]float64
	var n [2]int
	for _, r := range rows {
		q := float64(r.P99)
		if r.P99 < 0 {
			q = 42496 // one doubling past the last bounded bucket
		}
		idx := 0
		if r.Label == "4p" {
			idx = 1
		}
		sum[idx] += q
		n[idx]++
	}
	b.ReportMetric(sum[0]/float64(n[0]), "mean-p99-1p-ns")
	b.ReportMetric(sum[1]/float64(n[1]), "mean-p99-4p-ns")
}

// BenchmarkAblationMachineSize runs the Figure 2 comparison on a
// 32-processor machine (8 nodes of 4) — an extension beyond the paper's
// fixed 16 processors: does the clustering gain survive scaling the
// machine?
func BenchmarkAblationMachineSize(b *testing.B) {
	names := []string{"fft", "radix", "water-n2"}
	var rel16, rel32 float64
	for i := 0; i < b.N; i++ {
		rel16, rel32 = 0, 0
		for _, name := range names {
			for _, procs := range []int{16, 32} {
				tr := workload(b, name, procs)
				cfg1 := config.Baseline(1, config.MP6)
				cfg1.Procs = procs
				cfg4 := config.Baseline(4, config.MP6)
				cfg4.Procs = procs
				r1, err := runner.RunTrace(tr, cfg1)
				if err != nil {
					b.Fatal(err)
				}
				r4, err := runner.RunTrace(tr, cfg4)
				if err != nil {
					b.Fatal(err)
				}
				if procs == 16 {
					rel16 += r4.RNMr() / r1.RNMr()
				} else {
					rel32 += r4.RNMr() / r1.RNMr()
				}
			}
		}
	}
	b.ReportMetric(100*rel16/float64(len(names)), "relRNMr4way-16p%")
	b.ReportMetric(100*rel32/float64(len(names)), "relRNMr4way-32p%")
}

// BenchmarkAblationLocks compares the default ideal queue lock against
// test&test&set spinning on the lock-heaviest workloads: spinning turns
// every lock hand-off into an invalidate/re-read burst.
func BenchmarkAblationLocks(b *testing.B) {
	names := []string{"radiosity", "water-n2"}
	var quiet, spin float64
	for i := 0; i < b.N; i++ {
		quiet, spin = 0, 0
		for _, name := range names {
			tr, err := runner.Trace(name)
			if err != nil {
				b.Fatal(err)
			}
			params := config.Baseline(1, config.MP50).Params(tr.WorkingSet)
			m, err := machine.New(params)
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			quiet += float64(res.ExecTime)
			params.SpinLocks = true
			m, err = machine.New(params)
			if err != nil {
				b.Fatal(err)
			}
			res, err = m.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			spin += float64(res.ExecTime)
		}
	}
	if quiet > 0 {
		b.ReportMetric(100*spin/quiet, "spinlock-exec-vs-queue%")
	}
}

// benchObservability runs a small full-machine simulation with the given
// event sink attached (nil = instrumentation disabled, the default).
func benchObservability(b *testing.B, sink func() obs.Sink) {
	tr := workload(b, "micro-producer", 8)
	cfg := config.Baseline(1, config.MP50)
	cfg.Procs = 8
	params := cfg.Params(tr.WorkingSet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := machine.New(params)
		if err != nil {
			b.Fatal(err)
		}
		m.SetSink(sink())
		if _, err := m.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservabilityOff vs BenchmarkObservabilityOn: the ratio is the
// whole-simulation cost of event instrumentation. Off (nil sink, the
// disabled-recorder guard on every emit site) is the configuration every
// experiment runs in, so it must stay indistinguishable from the
// pre-instrumentation simulator.
func BenchmarkObservabilityOff(b *testing.B) {
	benchObservability(b, func() obs.Sink { return nil })
}

func BenchmarkObservabilityOn(b *testing.B) {
	benchObservability(b, func() obs.Sink { return &obs.Counting{} })
}

// TestDisabledSinkZeroAlloc pins the observability contract the simulator
// relies on: with no sink attached, the emit path allocates nothing — so
// it is safe to leave the instrumentation calls in every hot loop. Runs
// under -race too (the guard must not rely on inlining tricks the race
// detector defeats).
func TestDisabledSinkZeroAlloc(t *testing.T) {
	rec := obs.NewRecorder(nil)
	ev := obs.Event{Kind: obs.KindBusGrant, Node: 3, Peer: -1, At: 42, Dur: 80, Line: 7}
	allocs := loopAllocs(func() {
		for i := 0; i < 1000; i++ {
			if rec.Enabled() {
				rec.Emit(ev)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-sink emit path allocates %.0f times in 1000 rounds, want 0", allocs)
	}
}

// loopAllocs counts heap allocations over whole runs of loop and returns
// the fewest of up to three runs. One run per step would let
// testing.AllocsPerRun's integer division read 0 for a path that
// allocates on most steps but not all. A rare allocation by the runtime
// itself, seen under CPU contention, can land in one run but not in
// all three, while an allocation on the measured path lands in every run.
func loopAllocs(loop func()) float64 {
	n := testing.AllocsPerRun(1, loop)
	for i := 1; i < 3 && n > 0; i++ {
		n = min(n, testing.AllocsPerRun(1, loop))
	}
	return n
}

// BenchmarkAblationNUMA compares the COMA machine against the CC-NUMA
// baseline on workloads with migratory data (the architectural argument
// of paper Section 2: COMA turns repeated remote misses into local AM
// hits).
func BenchmarkAblationNUMA(b *testing.B) {
	apps := []string{"raytrace", "water-n2"}
	var comaNs, numaNs float64
	for i := 0; i < b.N; i++ {
		comaNs, numaNs = 0, 0
		for _, app := range apps {
			tr, err := runner.Trace(app)
			if err != nil {
				b.Fatal(err)
			}
			cfg := config.Baseline(1, config.MP50)
			res, err := runner.RunTrace(tr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			comaNs += float64(res.ExecTime)
			m, err := numa.NewMachine(cfg.Params(tr.WorkingSet))
			if err != nil {
				b.Fatal(err)
			}
			nres, err := m.Run(tr)
			if err != nil {
				b.Fatal(err)
			}
			numaNs += float64(nres.ExecTime)
		}
	}
	if numaNs > 0 {
		b.ReportMetric(100*comaNs/numaNs, "coma-exec-vs-numa%")
	}
}
