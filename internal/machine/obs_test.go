package machine

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addrspace"
	"repro/internal/obs"
	"repro/internal/trace"
)

// obsTrace is a small deterministic workload with enough variety to emit
// every event kind: reads, writes past the write-buffer depth, lock
// contention and barriers.
func obsTrace(procs int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	return randomTrace(rng, procs)
}

// sampledTrace is a workload whose measured section spans more than one
// default sampling period (256 µs, the first 32 µs of it detailed), so a
// sampled run fast-forwards most of it: processor 0 writes the data
// untimed, then every processor reads and writes it at random, with
// compute between references and a barrier per phase.
func sampledTrace(procs int) *trace.Trace {
	const lines = 1024
	rng := rand.New(rand.NewSource(11))
	b := trace.NewBuilder("sampled", procs)
	addr := func(i int) addrspace.Addr { return addrspace.Addr(0x10000 + i*addrspace.LineSize) }
	for i := 0; i < lines; i++ {
		b.Write(0, addr(i))
	}
	b.MeasureStart()
	for ph := 0; ph < 4; ph++ {
		for p := 0; p < procs; p++ {
			for i := 0; i < 2000; i++ {
				if a := addr(rng.Intn(lines)); rng.Intn(3) == 0 {
					b.Write(p, a)
				} else {
					b.Read(p, a)
				}
				b.Compute(p, 40)
			}
		}
		b.Barrier()
	}
	return b.Build(lines * addrspace.LineSize)
}

// Instrumentation must be a pure observer: a machine with a sink installed
// produces a bit-identical Result to one without, in exact and in sampled
// mode, where fast-forward runs the same instrumented access path. The
// same zero-perturbation contract covers the fidelity knob: exact mode
// with sampling geometry parameters present must not change a single bit
// either — the sampled machinery may only exist when Mode is sampled.
func TestInstrumentationDoesNotPerturb(t *testing.T) {
	run := func(tr *trace.Trace, sink obs.Sink, sampling bool, fid Fidelity) *Result {
		p := tinyParams(8, 2)
		p.Fidelity = fid
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if sink != nil {
			m.SetSink(sink)
		}
		if sampling {
			m.EnableSampling(10000)
		}
		res, err := m.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tr := obsTrace(8)
	plain := run(tr, nil, false, Fidelity{})
	traced := run(tr, &obs.Counting{}, false, Fidelity{})
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("installing a sink changed the simulation result")
	}
	spec := DefaultFidelity()
	spec.Mode = FidelityExact
	exact := run(tr, nil, false, spec)
	if !reflect.DeepEqual(plain, exact) {
		t.Fatal("exact fidelity with sampling geometry present changed the simulation result")
	}

	long := sampledTrace(8)
	bare := run(long, nil, false, DefaultFidelity())
	if bare.Fidelity.FastRefs == 0 {
		t.Fatal("no measured reference was fast-forwarded")
	}
	observed := run(long, &obs.Counting{}, true, DefaultFidelity())
	if observed.Timeline == nil {
		t.Fatal("sampled run with a sampler has no timeline")
	}
	observed.Timeline = nil
	if !reflect.DeepEqual(bare, observed) {
		t.Fatal("installing a sink and a sampler changed the sampled simulation result")
	}
}

// A sampled run's timeline counts every data reference of the trace, the
// fast-forwarded ones included: fast-forward runs the detailed access
// path, sampler notes and all.
func TestSampledTimelineCoversEveryReference(t *testing.T) {
	tr := sampledTrace(8)
	p := tinyParams(8, 2)
	p.Fidelity = DefaultFidelity()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSampling(10000)
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity.FastRefs == 0 {
		t.Fatal("no measured reference was fast-forwarded")
	}
	var reads, writes int64
	for i := range res.Timeline.Reads {
		reads += res.Timeline.Reads[i]
		writes += res.Timeline.Writes[i]
	}
	if c := tr.Counts(); reads != c.Reads || writes != c.Writes {
		t.Fatalf("timeline counts %d reads, %d writes; the trace has %d and %d", reads, writes, c.Reads, c.Writes)
	}
}

// The event stream must be consistent with the aggregate statistics: the
// sink sees the whole run, the Result only the measured section, so every
// Result counter is bounded by its event-stream counterpart.
func TestEventStreamConsistency(t *testing.T) {
	tr := obsTrace(8)
	// Small attraction memories force replacement traffic so the
	// replacement event kind is exercised too.
	params := DefaultParams(8, 2, 2048, 4*1024)
	params.L1Bytes = 512
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	var count obs.Counting
	ring := obs.NewRing(1 << 16)
	var sb strings.Builder
	jsonl := obs.NewJSONL(&sb)
	m.SetSink(obs.Tee{&count, ring, jsonl})
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if jsonl.Err() != nil {
		t.Fatal(jsonl.Err())
	}
	if count.Total() == 0 {
		t.Fatal("no events emitted")
	}
	for k := obs.KindBusGrant; int(k) < obs.NumKinds; k++ {
		if k == obs.KindLinkGrant {
			continue // a bus machine has no ring links
		}
		if count.Kinds[k] == 0 {
			t.Errorf("no %s events from a workload with reads, writes, locks and barriers", k)
		}
	}
	if got, want := count.TransitionTotal(), res.Protocol.TransitionTotal(); got < want {
		t.Errorf("event-stream transitions %d < measured-section transitions %d", got, want)
	}
	var busEvents int64
	for _, ns := range count.BusOccNs {
		busEvents += ns
	}
	if busEvents < int64(res.BusTotal()) {
		t.Errorf("event-stream bus occupancy %d < measured bus occupancy %d", busEvents, res.BusTotal())
	}
	if ring.Total() != count.Total() {
		t.Errorf("tee skew: ring saw %d events, counter %d", ring.Total(), count.Total())
	}
	if got := int64(strings.Count(sb.String(), "\n")); got != count.Total() {
		t.Errorf("JSONL lines %d != events %d", got, count.Total())
	}
	// The single global bus serves claims in order: bus-grant timestamps
	// are non-decreasing over the whole stream.
	prev := int64(-1)
	for _, e := range ring.Events() {
		if e.Kind != obs.KindBusGrant {
			continue
		}
		if e.At < prev {
			t.Fatalf("bus-grant timestamps regressed: %d after %d", e.At, prev)
		}
		prev = e.At
	}
}

// Result.Resources reports the measured-section usage of every resource in
// a fixed order, consistent with the utilization summaries.
func TestResultResources(t *testing.T) {
	tr := obsTrace(8)
	params := tinyParams(8, 2)
	m, err := New(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	nodes := params.Nodes()
	if want := 1 + 2*nodes + params.Procs; len(res.Resources) != want {
		t.Fatalf("Resources len = %d, want %d", len(res.Resources), want)
	}
	bus := res.Resources[0]
	if bus.Name != "bus" {
		t.Fatalf("Resources[0] = %q, want bus", bus.Name)
	}
	if got, want := bus.Utilization(res.ExecTime), res.BusUtilization; got != want {
		t.Fatalf("bus utilization %v != Result.BusUtilization %v", got, want)
	}
	for i, u := range res.Resources {
		if u.Claims == 0 {
			continue
		}
		if u.Waits.Total() != u.Claims {
			t.Errorf("resource %d (%s): histogram total %d != claims %d", i, u.Name, u.Waits.Total(), u.Claims)
		}
		if u.MeanWaitNs() < 0 {
			t.Errorf("resource %d (%s): negative mean wait", i, u.Name)
		}
	}
	// The per-node views agree.
	for n := 0; n < nodes; n++ {
		nc, dram := res.Resources[1+2*n], res.Resources[2+2*n]
		if nc.Utilization(res.ExecTime) != res.NodeUtilization[n].NC ||
			dram.Utilization(res.ExecTime) != res.NodeUtilization[n].DRAM {
			t.Fatalf("node %d resource rows disagree with NodeUtilization", n)
		}
	}
}
