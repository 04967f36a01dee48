package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/config"
	"repro/internal/machine"
)

// job identifies one simulation of a driver's run matrix.
type job struct {
	app string
	cfg config.Machine
}

// runAll executes a run matrix on the worker pool: every job fans out
// across up to Jobs workers, with each app's trace generated lazily by
// the first job that needs it (the singleflight cell makes same-app jobs
// share the one generation, and different apps' generations overlap
// across workers). Results come back in input order; if any job fails,
// outstanding work is cancelled and the error of the earliest failing
// job is returned, exactly as the sequential engine would report it.
//
// Trace retention is bounded by refcounting: before dispatch the matrix
// pins each app once per job that needs it, and each job (or the
// error-path sweep for undispatched jobs) releases one pin when done.
// An app's cached trace is evicted as soon as its global pin count
// reaches zero, so a full driver run never retains every workload's
// trace simultaneously — and the cache is empty once all matrices
// complete.
func (r *Runner) runAll(jobs []job) ([]*machine.Result, error) {
	needs := make(map[traceKey]int, len(jobs))
	for _, j := range jobs {
		needs[r.jobTrace(j)]++
	}
	r.pinTraces(needs)
	results := make([]*machine.Result, len(jobs))
	ran := make([]bool, len(jobs))
	err := r.forEach(len(jobs), func(i int) error {
		ran[i] = true
		defer r.releaseTrace(r.jobTrace(jobs[i]), 1)
		res, err := r.Run(jobs[i].app, jobs[i].cfg)
		results[i] = res
		return err
	})
	// Jobs never dispatched (early stop on error) still hold pins.
	for i, r2 := range ran {
		if !r2 {
			r.releaseTrace(r.jobTrace(jobs[i]), 1)
		}
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}

// jobTrace resolves the trace a job will simulate against, applying the
// same machine-size default Run does.
func (r *Runner) jobTrace(j job) traceKey {
	procs := j.cfg.Procs
	if procs == 0 {
		procs = r.Procs
	}
	return traceKey{app: j.app, procs: procs}
}

// pinTraces registers a matrix's per-trace usage counts before dispatch,
// so a trace shared with a concurrently running matrix cannot be evicted
// from under it.
func (r *Runner) pinTraces(needs map[traceKey]int) {
	r.mu.Lock()
	if r.tracePins == nil {
		r.tracePins = make(map[traceKey]int)
	}
	for key, n := range needs {
		r.tracePins[key] += n
	}
	r.mu.Unlock()
}

// releaseTrace drops n pins for a trace, evicting it from the cache when
// the global pin count reaches zero. Unpinned traces (direct Trace
// callers) are never evicted.
func (r *Runner) releaseTrace(key traceKey, n int) {
	r.mu.Lock()
	if rem, ok := r.tracePins[key]; ok {
		rem -= n
		if rem <= 0 {
			delete(r.tracePins, key)
			delete(r.traces, key)
		} else {
			r.tracePins[key] = rem
		}
	}
	r.mu.Unlock()
}

// PanicError is a panic recovered from a pool job. forEach returns it as
// that job's error, so a simulator bug fails the run instead of killing a
// long-lived caller such as comasrv.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// PanicStack returns the stack, for error reporters that do not import
// this package (the commands' shared flags.Check).
func (e *PanicError) PanicStack() []byte { return e.Stack }

// forEach runs f(0..n-1) on up to Jobs workers. Indices are dispatched in
// order; after the first failure no new index is dispatched, already
// running calls finish, and the error of the smallest failing index is
// returned. Because dispatch order is a prefix of input order, that index
// is the same one the sequential engine would have failed on. A call that
// panics fails its index with a *PanicError.
func (r *Runner) forEach(n int, f func(i int) error) error {
	workers := r.jobs()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	idx := make(chan int)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := call(f, i); err != nil {
					errs[i] = err
					stopOnce.Do(func() { close(stop) })
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-stop:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// call runs f(i), turning a panic into a *PanicError.
func call(f func(int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return f(i)
}
