package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Runner generates workload traces once and memoizes simulation results,
// since the figures share many configurations. It is safe for concurrent
// use: both caches are singleflight maps, so two goroutines asking for
// the same trace or run wait on one computation instead of racing.
type Runner struct {
	// Procs is the machine size (the paper's is 16).
	Procs int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Jobs bounds the number of concurrent simulations a run matrix fans
	// out to; 0 means runtime.NumCPU().
	Jobs int
	// Ctx, when non-nil, bounds every simulation this runner executes:
	// cancelling it makes in-flight machine runs stop between scheduler
	// steps and surface the context's error. Set before first use (the
	// comasrv daemon threads per-job contexts through here).
	Ctx context.Context
	// OnSimulate, when non-nil, is invoked once per simulation actually
	// executed (memoized hits do not call it) — the seam the
	// singleflight-deduplication tests and the comasrv cache-efficiency
	// counters hang off.
	OnSimulate func(app string, cfg config.Machine)
	// SinkFactory, when non-nil, supplies an observability sink for each
	// machine this runner builds (instrumentation is proven not to
	// perturb results; see internal/obs). The factory is called from
	// worker goroutines, so it — and the sinks it returns, if shared —
	// must be safe for concurrent use.
	SinkFactory func(app string, cfg config.Machine) obs.Sink
	// SampleWindow, when positive, enables windowed counter sampling on
	// every machine this runner builds: results carry a Timeline of
	// per-window deltas (see obs.Sampler). Sampling is deterministic —
	// it observes only simulated time — so memoized results and -jobs
	// invariance are unaffected.
	SampleWindow engine.Time
	// Fidelity is applied to every configuration that does not pin its
	// own (the -fidelity flag of cmd/experiments and cmd/sweep lands
	// here); the zero value leaves configurations exact. The resolved
	// fidelity is part of the memo key, so one runner can hold exact and
	// sampled results side by side without collisions.
	Fidelity config.Fidelity
	// WrapSimulate, when non-nil, brackets each simulation actually
	// executed (memoized hits are not bracketed): it is called at start
	// and the closure it returns is called with the simulation's error
	// when it finishes. The seam comasrv's span tracing hangs off.
	// Called from worker goroutines; must be safe for concurrent use.
	WrapSimulate func(app string, cfg config.Machine) func(err error)
	// Generate, when non-nil, replaces the generator TraceAt calls on a
	// trace-cache miss (apps.Generate(app, procs)): the seam comasrv's
	// cross-request trace reuse hangs off. It must return the trace
	// apps.Generate would. Called from worker goroutines; must be safe
	// for concurrent use.
	Generate func(app string, procs int) (*trace.Trace, error)

	mu      sync.Mutex
	traces  map[traceKey]func() (*trace.Trace, error)
	results map[runKey]func() (*machine.Result, error)
	// tracePins counts outstanding matrix jobs per trace; runAll pins
	// before dispatch and releases as jobs finish, evicting the cached
	// trace at zero so driver runs don't retain every workload at once.
	tracePins map[traceKey]int
}

type runKey struct {
	app string
	cfg config.Machine
}

// traceKey identifies a generated trace: scaled drivers run the same
// workload at several machine sizes, and a trace is only valid for the
// processor count it was generated for.
type traceKey struct {
	app   string
	procs int
}

// NewRunner returns a Runner for the paper's 16-processor machine.
func NewRunner() *Runner {
	return &Runner{Procs: 16}
}

// ctx resolves the runner's simulation context.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// jobs resolves the worker-pool width.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.NumCPU()
}

// traceCell and resultCell return a key's singleflight slot: the first
// goroutine to call it computes under sync.OnceValues while latecomers
// block on it and then read the settled values. A computation that panics
// panics every caller of its slot with the same value (forEach turns that
// into the job's error), rather than leaving a nil result with a nil
// error behind.
func (r *Runner) traceCell(key traceKey) func() (*trace.Trace, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = make(map[traceKey]func() (*trace.Trace, error))
	}
	c, ok := r.traces[key]
	if !ok {
		c = sync.OnceValues(func() (*trace.Trace, error) { return r.generate(key) })
		r.traces[key] = c
	}
	return c
}

func (r *Runner) resultCell(key runKey) func() (*machine.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.results == nil {
		r.results = make(map[runKey]func() (*machine.Result, error))
	}
	c, ok := r.results[key]
	if !ok {
		c = sync.OnceValues(func() (*machine.Result, error) { return r.simulate(key.app, key.cfg) })
		r.results[key] = c
	}
	return c
}

// Trace returns the (cached) reference trace of a workload at the
// runner's machine size.
func (r *Runner) Trace(app string) (*trace.Trace, error) {
	return r.TraceAt(app, r.Procs)
}

// TraceAt returns the (cached) trace of a workload at an explicit
// machine size (scaled drivers run several sizes through one runner).
func (r *Runner) TraceAt(app string, procs int) (*trace.Trace, error) {
	return r.traceCell(traceKey{app: app, procs: procs})()
}

// generate produces a trace for its cell, through the Generate seam when
// one is set.
func (r *Runner) generate(key traceKey) (*trace.Trace, error) {
	if r.Generate != nil {
		return r.Generate(key.app, key.procs)
	}
	return apps.Generate(key.app, key.procs)
}

// Run simulates one configuration, memoized and deduplicated: concurrent
// calls with the same key share one simulation. A config that does not
// pin its own processor count inherits the runner's machine size, so
// smaller-than-paper runners (tests use 8 processors) stay consistent
// with their traces.
func (r *Runner) Run(app string, cfg config.Machine) (*machine.Result, error) {
	if cfg.Procs == 0 {
		cfg.Procs = r.Procs
	}
	if cfg.Fidelity == (config.Fidelity{}) {
		cfg.Fidelity = r.Fidelity
	}
	return r.resultCell(runKey{app: app, cfg: cfg})()
}

// RunTrace simulates one configuration over a caller-supplied trace
// instead of a registered workload — the comasrv trace-ingestion path
// (POST /v1/simulate with "trace_ref"). Results are not memoized here:
// the daemon's content-addressed store already deduplicates by request
// key, and a CLI caller holds the trace itself. cfg.Procs must match the
// trace. The simulation seams (OnSimulate, WrapSimulate, SinkFactory,
// sampling, fidelity default) behave exactly as in Run, with the app
// label "trace:<name>". Uploaded traces are validated before they get
// here, but as defense in depth a panic out of the machine — which would
// kill the daemon from an async job's goroutine — is converted into an
// error.
func (r *Runner) RunTrace(tr *trace.Trace, cfg config.Machine) (res *machine.Result, err error) {
	if cfg.Procs == 0 {
		cfg.Procs = tr.Procs
	}
	if cfg.Procs != tr.Procs {
		return nil, fmt.Errorf("trace:%s: trace has %d processors but the configuration asks for %d",
			tr.Name, tr.Procs, cfg.Procs)
	}
	if cfg.Fidelity == (config.Fidelity{}) {
		cfg.Fidelity = r.Fidelity
	}
	label := "trace:" + tr.Name
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%s: simulation panic: %v", label, p)
		}
	}()
	return r.execute(label, tr, cfg)
}

// simulate executes one run (no caching; Run wraps it in a cell).
func (r *Runner) simulate(app string, cfg config.Machine) (*machine.Result, error) {
	tr, err := r.TraceAt(app, cfg.Procs)
	if err != nil {
		return nil, err
	}
	res, err := r.execute(app, tr, cfg)
	if err == nil && r.Progress != nil {
		r.mu.Lock()
		fmt.Fprintf(r.Progress, "ran %-10s %dp/node mp=%-4s ways=%d dram=%.2g nc=%.2g bus=%.2g -> exec %v\n",
			app, cfg.ProcsPerNode, cfg.Pressure.Label, cfg.AMWays,
			cfg.DRAMBandwidth, cfg.NCBandwidth, cfg.BusBandwidth, res.ExecTime)
		r.mu.Unlock()
	}
	return res, err
}

// execute is the one place a Runner builds and runs a machine: it checks
// cfg, builds the machine it describes, runs tr on it through the seams
// (OnSimulate, WrapSimulate, SinkFactory, sampling, Ctx) and releases
// it. label names the run in seam calls and errors.
func (r *Runner) execute(label string, tr *trace.Trace, cfg config.Machine) (res *machine.Result, err error) {
	if err := checkConfig(cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if r.OnSimulate != nil {
		r.OnSimulate(label, cfg)
	}
	if r.WrapSimulate != nil {
		finish := r.WrapSimulate(label, cfg)
		defer func() { finish(err) }()
	}
	m, err := machine.New(cfg.Params(tr.WorkingSet))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	if r.SinkFactory != nil {
		m.SetSink(r.SinkFactory(label, cfg))
	}
	if r.SampleWindow > 0 {
		m.EnableSampling(r.SampleWindow)
	}
	res, err = m.RunContext(r.ctx(), tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	m.Release() // Result is value-detached; recycle the tag arrays
	return res, nil
}

// checkConfig rejects the configurations config.Machine.Params cannot
// size a machine from: it divides by the memory pressure's K, and a ring
// divides by the clustering degree.
func checkConfig(cfg config.Machine) error {
	if cfg.ProcsPerNode <= 0 {
		return fmt.Errorf("ProcsPerNode must be positive, got %d", cfg.ProcsPerNode)
	}
	if cfg.Pressure.K <= 0 {
		return errors.New("memory pressure not set (use config.MP6..MP87)")
	}
	return nil
}
