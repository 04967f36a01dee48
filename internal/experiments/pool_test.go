package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/machine"
	"repro/internal/trace"
)

// runner8 returns a fresh 8-processor runner with the given pool width
// (fresh, so nothing is pre-memoized and the pool really executes).
func runner8(jobs int) *Runner {
	r := NewRunner()
	r.Procs = 8
	r.Jobs = jobs
	return r
}

// Determinism under parallelism: the same study must produce deeply-equal
// results whether the matrix runs on one worker or eight — aggregation is
// post-barrier in registry order, never completion order. A fresh
// one-worker runner is compared with paperRunner's eight; it leaves the
// host's other CPUs idle, so these tests run in parallel.
func TestFigure2DeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	t.Parallel()
	r := NewRunner()
	r.Jobs = 1
	seq, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	par, err := paperRunner().Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Figure2 differs between Jobs=1 and Jobs=8:\nseq %+v\npar %+v", seq, par)
	}
}

func TestSensitivityNodeDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	t.Parallel()
	r := NewRunner()
	r.Jobs = 1
	seq, err := r.SensitivityNode()
	if err != nil {
		t.Fatal(err)
	}
	par, err := paperRunner().SensitivityNode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("SensitivityNode differs between Jobs=1 and Jobs=8:\nseq %+v\npar %+v", seq, par)
	}
}

// TestFidelityJobsInvariance asserts sampled-mode results are
// byte-identical whether the matrix runs sequentially or fanned out
// across workers: sampling observes only simulated time, so worker
// scheduling must not leak into results. The five apps span the
// contention regimes: near-uncontended, AM-bound, barrier-bursty,
// bus-saturated and lock-serialized.
func TestFidelityJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("jobs-invariance matrix in -short mode")
	}
	cfg := config.Baseline(1, config.MP6)
	cfg.Procs = 8
	cfg.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
	var jobsList []job
	for _, name := range []string{"lu-c", "fft", "ocean-c", "radix", "water-sp"} {
		jobsList = append(jobsList, job{name, cfg})
	}
	sres, err := runner8(1).runAll(jobsList)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := runner8(8).runAll(jobsList)
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

// Singleflight: 16 goroutines racing on the same key must share exactly
// one simulation and get the same memoized result pointer.
func TestRunConcurrentSameKeySimulatesOnce(t *testing.T) {
	r := runner8(4)
	var sims atomic.Int64
	r.OnSimulate = func(string, config.Machine) { sims.Add(1) }
	cfg := config.Baseline(1, config.MP6)

	const callers = 16
	results := make([]interface{}, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := r.Run("fft", cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := sims.Load(); got != 1 {
		t.Fatalf("simulation executed %d times, want exactly 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}

// runAll must hand back results in input order and share the memo cache
// with direct Run calls.
func TestRunAllPreservesInputOrder(t *testing.T) {
	r := runner8(4)
	jobs := []job{
		{"fft", config.Baseline(4, config.MP6)},
		{"radix", config.Baseline(1, config.MP6)},
		{"fft", config.Baseline(1, config.MP6)},
	}
	results, err := r.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	for i, j := range jobs {
		direct, err := r.Run(j.app, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] != direct {
			t.Fatalf("results[%d] is not the memoized result of its job", i)
		}
	}
}

// Error propagation: a job failing mid-matrix must cancel outstanding
// work, return the first (input-order) error, and leak no goroutines.
func TestRunAllFirstErrorAndNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	r := runner8(4)
	good := config.Baseline(1, config.MP6)
	jobs := []job{
		{"fft", good},
		{"no-such-app", good},
		{"also-missing", good},
		{"radix", good},
		{"water-n2", good},
	}
	results, err := r.runAll(jobs)
	if err == nil {
		t.Fatal("expected an error from the failing job")
	}
	if results != nil {
		t.Fatalf("results must be nil on error, got %v", results)
	}
	// First-error semantics: the earliest bad job wins, not whichever
	// worker happened to fail first.
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Fatalf("error %q does not name the first failing job", err)
	}

	// The pool must wind down completely: poll briefly since worker
	// goroutine exit is asynchronous with runAll's return.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// A failing workload surfaces the same way through a full driver.
func TestSweepErrorPropagatesThroughPool(t *testing.T) {
	r := runner8(8)
	_, err := r.Sweep(SweepSpec{Apps: []string{"fft", "bogus"},
		ProcsPerNode: []int{1}, Pressures: []config.Pressure{config.MP6}})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want unknown-application error for %q", err, "bogus")
	}
}

// traceCacheState snapshots the runner's trace-cache bookkeeping.
func traceCacheState(r *Runner) (cached, pinned int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces), len(r.tracePins)
}

// Trace retention is bounded: once a matrix completes, every pin has been
// released and the cache holds no traces at all — a full driver run must
// not accumulate one trace per workload.
func TestRunAllReleasesTraceCache(t *testing.T) {
	r := runner8(4)
	jobs := []job{
		{"fft", config.Baseline(4, config.MP6)},
		{"fft", config.Baseline(2, config.MP6)},
		{"radix", config.Baseline(1, config.MP6)},
		{"water-n2", config.Baseline(1, config.MP6)},
	}
	if _, err := r.runAll(jobs); err != nil {
		t.Fatal(err)
	}
	cached, pinned := traceCacheState(r)
	if cached != 0 || pinned != 0 {
		t.Fatalf("after runAll: %d traces cached, %d pins outstanding; want 0/0", cached, pinned)
	}
}

// The error path releases pins too: dispatched jobs release via their
// defer, never-dispatched jobs via the sweep, so a failing matrix cannot
// pin traces forever.
func TestRunAllErrorReleasesTraceCache(t *testing.T) {
	r := runner8(2)
	good := config.Baseline(1, config.MP6)
	jobs := []job{
		{"fft", good},
		{"no-such-app", good},
		{"radix", good},
		{"water-n2", good},
		{"barnes", good},
		{"volrend", good},
	}
	if _, err := r.runAll(jobs); err == nil {
		t.Fatal("expected an error")
	}
	cached, pinned := traceCacheState(r)
	if cached != 0 || pinned != 0 {
		t.Fatalf("after failed runAll: %d traces cached, %d pins outstanding; want 0/0", cached, pinned)
	}
}

// Table1 generates every workload's trace; it too must leave the cache
// empty rather than retaining all 14 traces.
func TestTable1ReleasesTraceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full table in -short mode")
	}
	r := runner8(4)
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table1 rows = %d, want 14", len(rows))
	}
	cached, pinned := traceCacheState(r)
	if cached != 0 || pinned != 0 {
		t.Fatalf("after Table1: %d traces cached, %d pins outstanding; want 0/0", cached, pinned)
	}
}

// Direct (unpinned) Trace callers keep the old memoized behaviour: their
// traces stay cached, and a later matrix using the same app must not
// evict what it did not pin... unless the matrix itself pinned the app,
// in which case eviction at pin-zero is the contract.
func TestDirectTraceSurvivesUnrelatedMatrix(t *testing.T) {
	r := runner8(2)
	if _, err := r.Trace("cholesky"); err != nil {
		t.Fatal(err)
	}
	jobs := []job{{"fft", config.Baseline(1, config.MP6)}}
	if _, err := r.runAll(jobs); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	_, ok := r.traces[traceKey{app: "cholesky", procs: r.Procs}]
	r.mu.Unlock()
	if !ok {
		t.Fatal("matrix evicted a trace it never pinned")
	}
}

// A job that panics fails its index with a *PanicError carrying the
// panic value and stack; the pool keeps its first-error semantics.
func TestForEachPanicIsJobError(t *testing.T) {
	r := runner8(4)
	err := r.forEach(8, func(i int) error {
		if i == 3 {
			panic("job 3")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "job 3" || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want a *PanicError for job 3 with its stack", err)
	}
}

// panicValue calls f and returns what it panicked with, or nil.
func panicValue(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// A panic inside a singleflight slot reaches every later caller of the
// slot instead of leaving a nil trace with a nil error, and a matrix over
// the workload fails with the panic as its error.
func TestPanickingGeneratorFailsEveryCaller(t *testing.T) {
	r := runner8(4)
	r.Generate = func(string, int) (*trace.Trace, error) { panic("bad trace") }
	for i := 0; i < 2; i++ {
		var tr *trace.Trace
		var err error
		if p := panicValue(func() { tr, err = r.TraceAt("fft", 8) }); p != "bad trace" {
			t.Fatalf("TraceAt call %d: panic %v, returned (%v, %v); want the generator's panic", i, p, tr, err)
		}
	}
	jobs := []job{
		{"fft", config.Baseline(1, config.MP6)},
		{"fft", config.Baseline(4, config.MP6)},
		{"fft", config.Baseline(8, config.MP6)},
	}
	_, err := r.runAll(jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "bad trace" {
		t.Fatalf("runAll err = %v, want the generator's panic", err)
	}
}
