package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/coma"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/trace"
)

// simCell is one machine configuration of the simulation matrix.
type simCell struct {
	name string
	cfg  config.Machine
}

// simCells returns the three cells every app runs on: the Figure 2
// baseline, 4-way clustering at 87% pressure, and the 64-processor ring
// of 16 clusters at scaled 50% pressure.
func simCells() []simCell {
	bus1 := config.Baseline(1, config.MP6)
	bus1.Procs = 16
	bus4 := config.Baseline(4, config.MP87)
	bus4.Procs = 16
	ring := config.Baseline(2, config.MP50)
	ring.Procs = 64
	ring.ScalePressure = true
	ring.Topology = "ring"
	ring.Clusters = 16
	return []simCell{{"bus16-p1-mp6", bus1}, {"bus16-p4-mp87", bus4}, {"ring64-p2-mp50", ring}}
}

// cellOf names the cell a runner configuration belongs to.
func cellOf(cfg config.Machine) string {
	for _, c := range simCells() {
		if c.cfg.Procs == cfg.Procs && c.cfg.ProcsPerNode == cfg.ProcsPerNode && c.cfg.Topology == cfg.Topology {
			return c.name
		}
	}
	return "unknown"
}

// quickApps is the self-test's two-app matrix.
var quickApps = []string{"fft", "radix"}

// traceKey names one generated trace.
type traceKey struct {
	app   string
	procs int
}

// simIter is what one matrix iteration measured.
type simIter struct {
	setup    time.Duration
	genAlloc uint64
	wall     time.Duration
	refs     int64
	// scale is the host scale by the probe taken just before the timed
	// matrix (see hostSpeed).
	scale float64
	// sims holds every simulation's host time, in completion order.
	sims []simTiming
	rows []experiments.InspectRow
}

type simTiming struct {
	app, cell  string
	procs      int
	start, end time.Time
}

// simSetup generates every trace the matrix needs through the runner's
// own cache, on as many goroutines as the runner has workers.
func simSetup(runner *experiments.Runner, names []string, procs []int, jobs int, rec *recorder, traceID, parent string) (map[traceKey]*trace.Trace, error) {
	var keys []traceKey
	for _, p := range procs {
		for _, a := range names {
			keys = append(keys, traceKey{a, p})
		}
	}
	out := make(map[traceKey]*trace.Trace, len(keys))
	var mu sync.Mutex
	var firstErr error
	next := make(chan traceKey)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				t0 := time.Now()
				tr, err := runner.TraceAt(k.app, k.procs)
				rec.add(traceID, parent, "apps.generate", t0, time.Now(),
					map[string]string{"app": k.app, "procs": fmt.Sprint(k.procs)})
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[k] = tr
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// countRefs counts a trace's data references (reads and writes).
func countRefs(tr *trace.Trace) int64 {
	var n int64
	for p := range tr.Streams {
		st := &tr.Streams[p]
		for i := 0; i < st.Len(); i++ {
			if k := st.Kind(i); k == trace.Read || k == trace.Write {
				n++
			}
		}
	}
	return n
}

// simMatrix runs one iteration: a fresh runner, its traces generated
// before the timer starts, then the whole matrix through Inspect.
func simMatrix(r *run, host *hostSpeed, iter int, order []string, sampled bool, jobs int,
	refs map[traceKey]int64, ws map[traceKey]uint64) (simIter, error) {

	var it simIter
	runner := &experiments.Runner{Procs: 16, Jobs: jobs}
	if sampled {
		runner.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
	}
	cells := simCells()
	var mu sync.Mutex
	matrixID := fmt.Sprintf("matrix-%d", iter)
	runner.WrapSimulate = func(app string, cfg config.Machine) func(error) {
		t0 := time.Now()
		return func(error) {
			t1 := time.Now()
			mu.Lock()
			it.sims = append(it.sims, simTiming{app: app, cell: cellOf(cfg), procs: cfg.Procs, start: t0, end: t1})
			mu.Unlock()
		}
	}

	setupID, setupSpan := fmt.Sprintf("setup-%d", iter), r.spans.nextID()
	a0 := allocatedBytes()
	s0 := time.Now()
	traces, err := simSetup(runner, order, []int{16, 64}, jobs, r.spans, setupID, setupSpan)
	it.setup = time.Since(s0)
	it.genAlloc = allocatedBytes() - a0
	if err != nil {
		return it, err
	}
	r.spans.addID(setupSpan, setupID, "", "perfbench.setup", s0, s0.Add(it.setup), nil)
	for k, tr := range traces {
		if _, ok := refs[k]; !ok {
			refs[k] = countRefs(tr)
			ws[k] = tr.WorkingSet
		}
	}
	// Collect the set-up's garbage now, so its collection does not
	// compete with the timed matrix.
	runtime.GC()
	r.startMeasuring()

	cfgs := make([]config.Machine, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	it.scale = host.probe()
	t0 := time.Now()
	rows, err := runner.Inspect(order, cfgs)
	it.wall = time.Since(t0)
	if err != nil {
		return it, err
	}
	it.rows = rows
	for _, row := range rows {
		it.refs += refs[traceKey{row.App, row.Cfg.Procs}]
	}
	root := r.spans.add(matrixID, "", "experiments.matrix", t0, t0.Add(it.wall), nil)
	for _, s := range it.sims {
		r.spans.add(matrixID, root, "machine.simulate", s.start, s.end, map[string]string{"app": s.app, "cell": s.cell})
	}
	return it, nil
}

// fidelityName labels digests and metrics by fidelity.
func fidelityName(sampled bool) string {
	if sampled {
		return "sampled"
	}
	return "exact"
}

// runSim drives sim-exact and sim-sampled: matrix iterations until the
// measured (Inspect) time reaches the run length, at least three so each
// (app, cell) pair's median host time has three samples.
func runSim(r *run, sampled bool) error {
	o := r.opts
	names := apps.Names()
	minIters := 3
	if o.quick {
		names, minIters = quickApps, 1
	}
	// The seed only shuffles the order each matrix is dispatched in; the
	// simulations, and so the pinned digests, do not depend on it. Every
	// matrix gets a fresh order, so a run averages over which simulations
	// share the CPUs rather than keeping one pairing throughout.
	rng := rand.New(rand.NewSource(o.seed))
	jobs := runtime.GOMAXPROCS(0)
	fid := fidelityName(sampled)
	host, err := newHostSpeed(jobs)
	if err != nil {
		return err
	}
	defer host.close()

	refs := map[traceKey]int64{}
	ws := map[traceKey]uint64{}
	var iters []simIter
	var orders [][]string
	var measured time.Duration
	for len(iters) < minIters || measured < o.seconds {
		order := append([]string(nil), names...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		orders = append(orders, order)
		it, err := simMatrix(r, host, len(iters), order, sampled, jobs, refs, ws)
		if err != nil {
			return err
		}
		measured += it.wall
		for _, row := range it.rows {
			r.attempted++
			key := fmt.Sprintf("%s/%s/%s", fid, cellOf(row.Cfg), row.App)
			want, ok := o.pins[key]
			if got := resultDigest(row.Res); !ok || got != want {
				r.fail("%s: digest %s, pinned %q", key, got, want)
			}
		}
		iters = append(iters, it)
	}

	// The host's speed drifts within a run, so each matrix's figures are
	// scaled by the probe taken just before it.
	var setups, rates, wallSetups, wallRates []float64
	// A simulation's host time depends on which other simulation shares
	// the CPUs with it, which the dispatch order decides. Each (app, cell)
	// pair's median over the run's matrices evens that out; the latency
	// percentiles are taken over the pairs.
	byPair := map[[2]string][]float64{}
	wallByPair := map[[2]string][]float64{}
	sims := 0
	for _, it := range iters {
		wallSetups = append(wallSetups, it.setup.Seconds())
		wallRates = append(wallRates, float64(it.refs)/it.wall.Seconds())
		setups = append(setups, it.setup.Seconds()/it.scale)
		rates = append(rates, float64(it.refs)/it.wall.Seconds()*it.scale)
		for _, s := range it.sims {
			k := [2]string{s.app, s.cell}
			d := ms(s.end.Sub(s.start))
			wallByPair[k] = append(wallByPair[k], d)
			byPair[k] = append(byPair[k], d/it.scale)
			sims++
		}
	}
	pairMedians := func(m map[[2]string][]float64) []float64 {
		var out []float64
		for _, xs := range m {
			out = append(out, median(xs))
		}
		return out
	}
	pairMs, wallPairMs := pairMedians(byPair), pairMedians(wallByPair)
	r.scaled("setup_s", median(wallSetups), median(setups))
	r.scaled("throughput_per_s", median(wallRates), median(rates))
	r.scaled("latency_ms_p50", median(wallPairMs), median(pairMs))
	// With 42 pairs, p75 is the highest percentile with ten pairs beyond it.
	r.scaled("latency_ms_tail", percentile(wallPairMs, 0.75), percentile(pairMs, 0.75))
	host.report(r)
	r.info["matrices"] = len(iters)
	r.info["matrix_refs_per_wall_s"] = wallRates
	r.info["simulations"] = sims
	r.info["latency_p50"] = "median over (app, cell) pairs of each pair's median host time"
	r.info["latency_tail_percentile"] = "p75 over (app, cell) pairs of each pair's median host time"
	r.info["sim_pairs"] = len(pairMs)
	r.info["workers"] = jobs
	r.info["apps"] = len(names)
	r.info["dispatch_orders"] = orders

	if r.traced {
		simLayers(r, iters, sampled, jobs, refs, ws)
	}
	return nil
}

// simLayers derives the per-layer metrics of a traced sim run.
func simLayers(r *run, iters []simIter, sampled bool, jobs int, refs map[traceKey]int64, ws map[traceKey]uint64) {
	var gen, alloc, runS, busy, tail []float64
	cellNs := map[string]time.Duration{}
	cellRefs := map[string]int64{}
	for _, it := range iters {
		gen = append(gen, it.setup.Seconds())
		alloc = append(alloc, mb(it.genAlloc))
		var sum time.Duration
		ends := make([]time.Time, 0, len(it.sims))
		for _, s := range it.sims {
			d := s.end.Sub(s.start)
			sum += d
			cellNs[s.cell] += d
			cellRefs[s.cell] += refs[traceKey{s.app, s.procs}]
			ends = append(ends, s.end)
		}
		runS = append(runS, sum.Seconds())
		busy = append(busy, sum.Seconds()/(it.wall.Seconds()*float64(jobs)))
		sort.Slice(ends, func(i, j int) bool { return ends[i].After(ends[j]) })
		if len(ends) >= jobs {
			// The workers' last simulations are the jobs latest to end; the
			// earliest of those is when the first worker went idle.
			tail = append(tail, ends[0].Sub(ends[jobs-1]).Seconds())
		}
	}
	r.layer("apps.generate_s", median(gen))
	r.layer("apps.alloc_mb", median(alloc))
	r.layer("machine.run_s", median(runS))
	r.layer("experiments.pool_busy_ratio", median(busy))
	r.layer("experiments.tail_s", median(tail))
	for cell, d := range cellNs {
		if n := cellRefs[cell]; n > 0 {
			r.layer("machine.ns_per_ref."+cell, float64(d.Nanoseconds())/float64(n))
		}
	}

	last := iters[len(iters)-1]
	var execNs, rnm, injects, busNs int64
	fast := map[string][2]int64{}
	for _, row := range last.rows {
		res := row.Res
		execNs += int64(res.ExecTime)
		rnm += res.ReadNodeMisses
		injects += res.Protocol.Injects
		for _, b := range res.BusOccupancy {
			busNs += int64(b)
		}
		if f := res.Fidelity; f != nil {
			c := fast[cellOf(row.Cfg)]
			fast[cellOf(row.Cfg)] = [2]int64{c[0] + f.FastRefs, c[1] + f.TotalRefs}
		}
	}
	r.layer("sim.exec_ns", float64(execNs))
	r.layer("sim.read_node_misses", float64(rnm))
	r.layer("sim.injects", float64(injects))
	r.layer("sim.bus_busy_ns", float64(busNs))
	for cell, c := range fast {
		if c[1] > 0 {
			r.layer("fidelity.fast_ref_share."+cell, float64(c[0])/float64(c[1]))
		}
	}
	machineNewProbe(r, last.rows, sampled, ws)
}

// machineNewProbe times machine.New for every (app, cell) of the matrix
// on its own, releasing each machine before the next as the runner does,
// and attributes the bytes allocated to machine construction.
func machineNewProbe(r *run, rows []experiments.InspectRow, sampled bool, ws map[traceKey]uint64) {
	perCell := map[string][]float64{}
	a0 := allocatedBytes()
	for _, row := range rows {
		cfg := row.Cfg
		if sampled {
			cfg.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
		}
		t0 := time.Now()
		m, err := machine.New(cfg.Params(ws[traceKey{row.App, cfg.Procs}]))
		t1 := time.Now()
		if err != nil {
			r.fail("machine.New %s/%s: %v", row.App, cellOf(cfg), err)
			continue
		}
		m.Release()
		cell := cellOf(cfg)
		perCell[cell] = append(perCell[cell], ms(t1.Sub(t0)))
		r.spans.add("probe-machine-new", "", "machine.new", t0, t1, map[string]string{"app": row.App, "cell": cell})
	}
	r.layer("machine.alloc_mb", mb(allocatedBytes()-a0))
	for cell, xs := range perCell {
		r.layer("machine.new_ms."+cell, median(xs))
	}
}

// resultDigest hashes a run's count statistics, execution time and (for
// sampled runs) fidelity report. A change meant only to speed the
// simulator up must leave every digest unchanged.
func resultDigest(res *machine.Result) string {
	busy := [3]int64{}
	for i, b := range res.BusOccupancy {
		busy[i] = int64(b)
	}
	v := struct {
		ExecTime       int64
		Reads          int64
		ReadNodeMisses int64
		SLCMisses      int64
		WriteBacks     int64
		DirtyPurges    int64
		BusOccupancy   [3]int64
		Protocol       coma.Stats
		Fidelity       *machine.FidelityReport
	}{int64(res.ExecTime), res.Reads, res.ReadNodeMisses, res.SLCMisses,
		res.WriteBacks, res.DirtyPurges, busy, res.Protocol, res.Fidelity}
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinDigests runs the full exact and sampled matrices once and writes
// every simulation's digest to path.
func pinDigests(path string) error {
	pins := map[string]string{}
	cells := simCells()
	cfgs := make([]config.Machine, len(cells))
	for i, c := range cells {
		cfgs[i] = c.cfg
	}
	for _, sampled := range []bool{false, true} {
		runner := &experiments.Runner{Procs: 16, Jobs: runtime.GOMAXPROCS(0)}
		if sampled {
			runner.Fidelity = config.Fidelity{Mode: machine.FidelitySampled}
		}
		rows, err := runner.Inspect(apps.Names(), cfgs)
		if err != nil {
			return err
		}
		for _, row := range rows {
			pins[fmt.Sprintf("%s/%s/%s", fidelityName(sampled), cellOf(row.Cfg), row.App)] = resultDigest(row.Res)
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
