package machine

// Adaptive fidelity (DESIGN.md §10): the sampled execution mode
// interleaves functional fast-forward with detailed measurement windows,
// SMARTS-style. Fast-forward is the detailed access path (exec, doRead,
// doWrite, charge) run with Machine.freeflow set, so every reference
// walks the real L1/SLC/protocol code and every *count* metric (reads,
// node misses, SLC misses, write-backs, purges, bus occupancy, protocol
// counters) stays exactly counted. Timing differs from detailed
// execution at exactly three points: resource claims pass through
// (Machine.claimRes), a read's latency becomes its contention-free
// latency plus the calibrated mean queueing delay of its stall class
// (ffState.scale), and a write drain's duration likewise (scaleW). The
// delays are measured inside the detailed windows per stall class (SLC /
// AM / remote) and separately for write drains. Only timing is
// estimated; the estimate's spread across windows is reported as
// per-metric confidence in Result.Fidelity.

import (
	"math"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Calibrated waits are kept in fixed point so fast-forward clock
// advances stay integral and deterministic.
const (
	lambdaShift = 8
	lambdaOne   = 1 << lambdaShift
)

// ffSlice bounds how much simulated time one fast-forward burst may
// cover before the scheduler re-picks its minimum processor. Unbounded
// bursts would let one processor run an entire fast span (tens of µs)
// alone, coarsening the functional interleaving enough to perturb
// sharing-sensitive miss counts; slicing keeps processors within a few
// µs of each other at a per-burst overhead amortized over hundreds of
// references.
const ffSlice engine.Time = 4000

// ffSample is one closed measurement window's counter deltas, the raw
// material for both the wait calibration and the confidence estimates.
type ffSample struct {
	span       engine.Time // detailed time the window actually covered
	reads      int64
	writes     int64
	nodeMisses int64
	slcMisses  int64
	busNs      engine.Time // interconnect occupancy, all classes
	actual     engine.Time // measured read service time in the window
	cf         engine.Time // its contention-free component
}

// ffState drives the sampled mode for one run. Phases are a pure
// function of a processor's clock: within each Period after the measured
// section starts, [0, Warmup) and [Warmup, Warmup+Window) run detailed
// (the window calibrates), the rest fast-forwards. Before MeasureStart
// everything fast-forwards (statistics are reset at the measure barrier,
// and the barrier realigns all clocks). Window open/close tracking rides
// the scheduler clock, which is non-decreasing because the heap always
// steps the global (clock, id) minimum — so each window opens and closes
// exactly once, in order.
type ffState struct {
	spec      Fidelity
	measuring bool        // past the MeasureStart barrier
	start     engine.Time // phase origin (the measure barrier's release)

	inWindow  bool
	epoch     int64 // period index of the open window
	winOpenAt engine.Time
	winEnd    engine.Time // the open window's scheduled end

	// Calibration accumulators. Contention inflation is strongly
	// class-dependent (a remote read queues on the global medium, an AM
	// hit mostly on its local DRAM, an SLC hit only on the SLC port),
	// so reads calibrate one λ per stall class. Write drains calibrate
	// their own factor, measured from each drain's scheduled start so
	// that write-buffer backlog — which fast-forward models explicitly —
	// is not double-counted as contention (that coupling is a positive
	// feedback loop: λ-inflated drains grow the backlog that the next
	// window then measures as more contention).
	winActual [stallClasses]engine.Time
	winCf     [stallClasses]engine.Time
	winN      [stallClasses]int64
	winWA     engine.Time
	winWCf    engine.Time
	winWN     int64

	// Cumulative over all closed windows. The model is additive — each
	// fast-forward access advances by its contention-free latency plus
	// the class's mean measured queueing delay per access — because
	// queueing delay is a property of the queue, not of the access's own
	// service time (a multiplicative factor would charge a five-hop read
	// five times the queue wait of a one-hop read, and under saturation
	// couples into a positive feedback through the write-buffer backlog).
	calActual [stallClasses]engine.Time
	calCf     [stallClasses]engine.Time
	calN      [stallClasses]int64
	calWA     engine.Time
	calWCf    engine.Time
	calWN     int64
	waitFP    [stallClasses]int64 // calibrated wait per access, fixed point
	waitWFP   int64               // calibrated wait per write drain, fixed point

	// Counter snapshots at window open.
	snapReads      int64
	snapWrites     int64
	snapNodeMisses int64
	snapSLC        int64
	snapBus        engine.Time

	// Resource busy-time accounting, in Result.Resources order: busyDet
	// accumulates each resource's busy time inside windows, the basis for
	// utilization extrapolation.
	resList  []*engine.Resource
	snapBusy []engine.Time
	busyDet  []engine.Time

	samples  []ffSample
	fastRefs int64
}

func newFFState(spec Fidelity) *ffState {
	return &ffState{spec: spec, samples: make([]ffSample, 0, 256)}
}

// fastAt reports whether a processor whose clock is t runs fast-forward.
func (f *ffState) fastAt(t engine.Time) bool {
	if !f.measuring {
		return true
	}
	return (t-f.start)%f.spec.Period >= f.spec.Warmup+f.spec.Window
}

// nextDetailed returns the next detailed-phase boundary at or after t —
// the burst limit.
func (f *ffState) nextDetailed(t engine.Time) engine.Time {
	if !f.measuring {
		return math.MaxInt64 / 2
	}
	off := (t - f.start) % f.spec.Period
	if off < f.spec.Warmup+f.spec.Window {
		return t
	}
	return t - off + f.spec.Period
}

// scale adds the class's calibrated mean queueing delay to a
// contention-free read latency, carrying the fixed-point remainder per
// processor so schedules stay integral and deterministic.
func (f *ffState) scale(p *proc, cf engine.Time, class StallClass) engine.Time {
	v := f.waitFP[class] + p.ffRem
	p.ffRem = v & (lambdaOne - 1)
	return cf + engine.Time(v>>lambdaShift)
}

// scaleW adds the calibrated mean drain queueing delay to a
// contention-free write-drain duration.
func (f *ffState) scaleW(p *proc, cf engine.Time) engine.Time {
	v := f.waitWFP + p.ffRem
	p.ffRem = v & (lambdaOne - 1)
	return cf + engine.Time(v>>lambdaShift)
}

// ffBegin arms the phase machine at the measured section's start.
func (m *Machine) ffBegin(at engine.Time) {
	f := m.ff
	f.measuring = true
	f.start = at
	f.inWindow = false
	m.counting = false
	f.resList = f.resList[:0]
	f.resList = append(f.resList, m.ic.Resources()...)
	for _, n := range m.nodes {
		f.resList = append(f.resList, n.nc, n.dram)
	}
	for _, p := range m.procs {
		f.resList = append(f.resList, p.slcRes)
	}
	f.snapBusy = make([]engine.Time, len(f.resList))
	f.busyDet = make([]engine.Time, len(f.resList))
	f.samples = f.samples[:0]
	for c := range f.waitFP {
		f.calActual[c], f.calCf[c], f.calN[c] = 0, 0, 0
		f.waitFP[c] = 0
	}
	f.calWA, f.calWCf, f.calWN = 0, 0, 0
	f.waitWFP = 0
	f.fastRefs = 0
}

// ffSync advances the window phase machine to scheduler clock t, closing
// and opening measurement windows as boundaries pass.
func (m *Machine) ffSync(t engine.Time) {
	f := m.ff
	if !f.measuring {
		return
	}
	off := (t - f.start) % f.spec.Period
	ep := int64((t - f.start) / f.spec.Period)
	in := off >= f.spec.Warmup && off < f.spec.Warmup+f.spec.Window
	if f.inWindow && (!in || ep != f.epoch) {
		m.ffClose(t)
	}
	if in && !f.inWindow {
		m.ffOpen(t, ep)
	}
}

// ffOpen snapshots the global counters at window entry.
func (m *Machine) ffOpen(t engine.Time, ep int64) {
	f := m.ff
	f.inWindow = true
	m.counting = true
	f.epoch = ep
	f.winOpenAt = t
	f.winEnd = f.start + engine.Time(ep)*f.spec.Period + f.spec.Warmup + f.spec.Window
	for c := range f.winActual {
		f.winActual[c], f.winCf[c], f.winN[c] = 0, 0, 0
	}
	f.winWA, f.winWCf, f.winWN = 0, 0, 0
	f.snapReads = m.reads
	f.snapNodeMisses = m.readNodeMisses
	f.snapSLC = m.slcMisses
	f.snapBus = m.busOcc[0] + m.busOcc[1] + m.busOcc[2]
	var w int64
	for _, p := range m.procs {
		w += p.st.Writes
	}
	f.snapWrites = w
	for i, r := range f.resList {
		f.snapBusy[i] = r.BusyTotal()
	}
}

// ffClose records the window's deltas and folds them into the wait
// calibration.
func (m *Machine) ffClose(t engine.Time) {
	f := m.ff
	f.inWindow = false
	m.counting = false
	end := t
	if end > f.winEnd {
		end = f.winEnd
	}
	span := end - f.winOpenAt
	if span <= 0 {
		return
	}
	var w int64
	for _, p := range m.procs {
		w += p.st.Writes
	}
	var act, cf engine.Time
	for c := range f.winActual {
		act += f.winActual[c]
		cf += f.winCf[c]
	}
	f.samples = append(f.samples, ffSample{
		span:       span,
		reads:      m.reads - f.snapReads,
		writes:     w - f.snapWrites,
		nodeMisses: m.readNodeMisses - f.snapNodeMisses,
		slcMisses:  m.slcMisses - f.snapSLC,
		busNs:      m.busOcc[0] + m.busOcc[1] + m.busOcc[2] - f.snapBus,
		actual:     act,
		cf:         cf,
	})
	for i, r := range f.resList {
		f.busyDet[i] += r.BusyTotal() - f.snapBusy[i]
	}
	for c := range f.winActual {
		f.calActual[c] += f.winActual[c]
		f.calCf[c] += f.winCf[c]
		f.calN[c] += f.winN[c]
		f.waitFP[c] = waitOf(f.calActual[c]-f.calCf[c], f.calN[c])
	}
	f.calWA += f.winWA
	f.calWCf += f.winWCf
	f.calWN += f.winWN
	f.waitWFP = waitOf(f.calWA-f.calWCf, f.calWN)
}

// noteRead folds one detailed-window read into the calibration: its
// measured service time and the contention-free component (service
// minus queueing delay).
func (f *ffState) noteRead(c StallClass, actual, cf engine.Time) {
	f.winActual[c] += actual
	f.winCf[c] += cf
	f.winN[c]++
}

// noteDrain folds one detailed-window write drain into the calibration.
func (f *ffState) noteDrain(actual, cf engine.Time) {
	f.winWA += actual
	f.winWCf += cf
	f.winWN++
}

// waitOf turns cumulative queueing delay over n accesses into the
// fixed-point mean wait per access, clamped to non-negative.
func waitOf(wait engine.Time, n int64) int64 {
	if n <= 0 || wait <= 0 {
		return 0
	}
	return (int64(wait)<<lambdaShift + n/2) / n
}

// ffBurst fast-forwards p until the next detailed-phase boundary, a
// synchronization record, or the end of its stream. Records run through
// exec — the detailed path — with freeflow set, so resource claims pass
// through and doRead/doWrite λ-scale their clock advances; the clock,
// the sampler and the window phase machine advance once per burst, not
// per record. A synchronization record ends the burst: lock handoffs and
// barrier releases move other processors' clocks, so the scheduler must
// re-pick its minimum.
func (m *Machine) ffBurst(p *proc) {
	f := m.ff
	m.now = p.t
	if m.sampler != nil {
		m.sampler.Advance(int64(p.t))
	}
	m.ffSync(p.t)
	limit := f.nextDetailed(p.t)
	if cap := p.t + ffSlice; cap < limit {
		limit = cap
	}
	m.freeflow = true
	refs := p.refs
	n := refs.Len()
	for p.pc < n && p.t < limit {
		r := refs.At(p.pc)
		if r.Kind == trace.Read || r.Kind == trace.Write {
			f.fastRefs++
		}
		if m.exec(p, r) {
			break
		}
	}
	m.freeflow = false
	if !p.blocked && !p.done && p.pc >= n {
		m.finish(p)
	}
}

// FidelityReport is the sampled-mode metadata attached to a Result:
// what geometry ran, how much of the run was measured in detail, the
// calibrated contention factor, and per-metric confidence.
type FidelityReport struct {
	// Mode is FidelitySampled (exact runs carry a nil report).
	Mode string
	// Geometry actually used (simulated ns).
	WarmupNs, WindowNs, PeriodNs int64
	// Windows is the number of closed measurement windows.
	Windows int
	// DetailedNs is the summed simulated time the windows covered;
	// Coverage is DetailedNs / ExecTime.
	DetailedNs int64
	Coverage   float64
	// FastRefs counts data references executed in fast-forward;
	// TotalRefs counts all measured-section data references.
	FastRefs  int64
	TotalRefs int64
	// Lambda is the final calibrated contention factor (>= 1): measured
	// read service time over its contention-free component, pooled over
	// classes. LambdaClass breaks it down by stall class (SLC, AM,
	// Remote) and LambdaDrain is the write-drain factor.
	Lambda      float64
	LambdaClass [3]float64
	LambdaDrain float64
	// Confidence estimates each extrapolated metric's relative standard
	// error from its spread across windows.
	Confidence FidelityConfidence
}

// FidelityConfidence holds per-metric relative standard errors computed
// across measurement windows (standard error of the window mean divided
// by the mean). 1.0 means "fewer than two windows: no estimate".
type FidelityConfidence struct {
	// ExecTime is the RSE of the per-window contention factor — the only
	// model parameter the execution-time estimate depends on.
	ExecTime float64
	// RNMr is the RSE of the per-window read node miss rate.
	RNMr float64
	// BusOccupancy is the RSE of the per-window occupancy rate.
	BusOccupancy float64
	// MissRatio is the RSE of the per-window SLC miss ratio.
	MissRatio float64
}

// ffFinalize closes any open window, extrapolates the window-sampled
// resource metrics over the whole measured section and attaches the
// fidelity report.
func (m *Machine) ffFinalize(res *Result) {
	f := m.ff
	if f.inWindow {
		m.ffClose(m.now)
	}
	var detSpan engine.Time
	for _, s := range f.samples {
		detSpan += s.span
	}
	var act, cf engine.Time
	for c := range f.calActual {
		act += f.calActual[c]
		cf += f.calCf[c]
	}
	rep := &FidelityReport{
		Mode:       FidelitySampled,
		WarmupNs:   int64(f.spec.Warmup),
		WindowNs:   int64(f.spec.Window),
		PeriodNs:   int64(f.spec.Period),
		Windows:    len(f.samples),
		DetailedNs: int64(detSpan),
		FastRefs:   f.fastRefs,
		Lambda:     impliedLambda(act, cf),
	}
	for c := range f.calActual {
		rep.LambdaClass[c] = impliedLambda(f.calActual[c], f.calCf[c])
	}
	rep.LambdaDrain = impliedLambda(f.calWA, f.calWCf)
	rep.TotalRefs = res.Reads
	for i := range res.Procs {
		rep.TotalRefs += res.Procs[i].Writes
	}
	if res.ExecTime > 0 {
		rep.Coverage = float64(detSpan) / float64(res.ExecTime)
		if rep.Coverage > 1 {
			rep.Coverage = 1
		}
	}
	if detSpan > 0 && res.ExecTime > 0 && len(res.Resources) == len(f.busyDet) {
		// Counts are exact in every phase; busy time only accrues in
		// detailed phases (freeflow claims pass through), so resource
		// occupancy and utilization extrapolate from the windows.
		scale := float64(res.ExecTime) / float64(detSpan)
		for i := range res.Resources {
			res.Resources[i].BusyNs = int64(float64(f.busyDet[i])*scale + 0.5)
		}
		nIC := len(m.ic.Resources())
		var icBusy float64
		for i := 0; i < nIC; i++ {
			icBusy += float64(f.busyDet[i])
		}
		res.BusUtilization = icBusy / (float64(detSpan) * float64(nIC))
		for n := range res.NodeUtilization {
			res.NodeUtilization[n] = NodeUtil{
				NC:   float64(f.busyDet[nIC+2*n]) / float64(detSpan),
				DRAM: float64(f.busyDet[nIC+2*n+1]) / float64(detSpan),
			}
		}
	}
	rep.Confidence = f.confidence()
	res.Fidelity = rep
}

// confidence derives per-metric relative standard errors from the
// window samples.
func (f *ffState) confidence() FidelityConfidence {
	var lam, rnm, bus, miss []float64
	for _, s := range f.samples {
		if s.cf > 0 {
			lam = append(lam, float64(s.actual)/float64(s.cf))
		}
		if s.reads > 0 {
			rnm = append(rnm, float64(s.nodeMisses)/float64(s.reads))
		}
		if s.span > 0 {
			bus = append(bus, float64(s.busNs)/float64(s.span))
		}
		if s.reads+s.writes > 0 {
			miss = append(miss, float64(s.slcMisses)/float64(s.reads+s.writes))
		}
	}
	return FidelityConfidence{
		ExecTime:     rse(lam),
		RNMr:         rse(rnm),
		BusOccupancy: rse(bus),
		MissRatio:    rse(miss),
	}
}

// impliedLambda is the measured-over-contention-free service time ratio,
// for reporting (1 when nothing was measured).
func impliedLambda(actual, cf engine.Time) float64 {
	if cf <= 0 {
		return 1
	}
	return float64(actual) / float64(cf)
}

// rse is the relative standard error of the mean of v.
func rse(v []float64) float64 {
	if len(v) < 2 {
		return 1
	}
	n := float64(len(v))
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/(n-1)) / (mean * math.Sqrt(n))
}
