package config

import (
	"encoding/json"
	"fmt"

	"repro/internal/addrspace"
	"repro/internal/coma"
	"repro/internal/engine"
	"repro/internal/machine"
)

// Pressure is one of the paper's memory-pressure operating points,
// expressed as K/16: a single copy of the working set entirely fills K of
// the 16 per-processor attraction-memory quotas.
type Pressure struct {
	Label string
	K     int
}

// The paper's five operating points: 6%, 50%, 75%, 81% and 87%.
var (
	MP6  = Pressure{"6%", 1}
	MP50 = Pressure{"50%", 8}
	MP75 = Pressure{"75%", 12}
	MP81 = Pressure{"81%", 13}
	MP87 = Pressure{"87%", 14}
)

// Pressures lists the operating points in ascending order.
var Pressures = []Pressure{MP6, MP50, MP75, MP81, MP87}

// PressureByLabel resolves "50%" etc.
func PressureByLabel(label string) (Pressure, error) {
	for _, p := range Pressures {
		if p.Label == label {
			return p, nil
		}
	}
	return Pressure{}, fmt.Errorf("config: unknown memory pressure %q", label)
}

// Fraction returns the memory pressure as a fraction of total AM capacity.
func (p Pressure) Fraction() float64 { return float64(p.K) / 16 }

// MarshalJSON encodes the pressure as its label ("50%"), the form the
// comasrv API and the CLI flags share.
func (p Pressure) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.Label)
}

// UnmarshalJSON decodes a pressure label ("50%") into one of the paper's
// operating points.
func (p *Pressure) UnmarshalJSON(data []byte) error {
	var label string
	if err := json.Unmarshal(data, &label); err != nil {
		return err
	}
	got, err := PressureByLabel(label)
	if err != nil {
		return err
	}
	*p = got
	return nil
}

// Machine holds the tunables of one simulated configuration on top of a
// workload's working set.
type Machine struct {
	// Procs is the total processor count; 0 selects the paper's 16.
	Procs int
	// ProcsPerNode is the clustering degree (1, 2 or 4 in the paper).
	ProcsPerNode int
	// Pressure selects the AM sizing.
	Pressure Pressure
	// AMWays is the attraction-memory associativity (4, or 8 for the
	// Figure 4 variant).
	AMWays int
	// Bandwidth multipliers (1.0 = paper baseline; Figure 5 uses
	// DRAM = 2).
	DRAMBandwidth, NCBandwidth, BusBandwidth float64
	// Inclusive hierarchy (paper default true).
	Inclusive bool
	// Policy selects the protocol's replacement design choices
	// (ablations; default is the paper's protocol).
	Policy coma.Policy

	// Topology selects the interconnect: "" or "bus" is the paper's
	// snooping bus, "ring" the hierarchical ring of clusters.
	Topology string
	// Clusters is the ring's cluster count; 0 puts every node in its own
	// cluster (a pure node ring). Ignored on the bus.
	Clusters int
	// LinkLatencyNs is the per-hop ring-link latency: 0 selects the
	// default (machine.DefaultLinkLatency), a negative value means
	// explicitly zero (the cross-topology equivalence configuration).
	LinkLatencyNs int
	// LinkBandwidth divides ring-link occupancy (0 = 1.0 = one
	// 20 ns phase per address transfer).
	LinkBandwidth float64
	// ScalePressure reinterprets the pressure's K/16 working-set
	// fraction against this machine's processor count instead of the
	// paper's 16, so scaled sweeps (Figure2Scaled) run at the same
	// fractional memory pressure as the 16-processor points.
	ScalePressure bool

	// Fidelity selects the execution fidelity; the zero value is exact
	// simulation.
	Fidelity Fidelity
}

// Fidelity selects a run's execution fidelity. The zero value (or Mode
// "exact") is full-detail simulation; Mode "sampled" is SMARTS-style
// sampled fast-forward at the machine's default geometry
// (machine.DefaultFidelity), kept only for perfbench's sim-sampled
// workload. The struct is comparable so configurations carrying it can
// key result caches.
type Fidelity struct {
	// Mode is "", "exact" or "sampled".
	Mode string
}

// Sampled reports whether the spec selects sampled fidelity.
func (f Fidelity) Sampled() bool { return f.Mode == machine.FidelitySampled }

// Params maps the spec onto the machine's fidelity knob.
func (f Fidelity) Params() machine.Fidelity {
	switch f.Mode {
	case "", machine.FidelityExact:
		return machine.Fidelity{}
	case machine.FidelitySampled:
		return machine.DefaultFidelity()
	default:
		// Unknown modes flow through so machine.Params.Validate rejects
		// them instead of silently running exact.
		return machine.Fidelity{Mode: f.Mode}
	}
}

// Baseline returns the paper's default machine at the given clustering
// degree and pressure.
func Baseline(procsPerNode int, mp Pressure) Machine {
	return Machine{
		ProcsPerNode:  procsPerNode,
		Pressure:      mp,
		AMWays:        4,
		DRAMBandwidth: 1,
		NCBandwidth:   1,
		BusBandwidth:  1,
		Inclusive:     true,
		Policy:        coma.DefaultPolicy(),
	}
}

// Figure5 returns the execution-time study configuration: the paper
// doubles the DRAM bandwidth (holding latency constant) for Figure 5.
func Figure5(procsPerNode int, mp Pressure) Machine {
	m := Baseline(procsPerNode, mp)
	m.DRAMBandwidth = 2
	return m
}

// Params concretizes the configuration for a workload with the given
// working set (bytes); the processor count defaults to the paper's 16.
func (m Machine) Params(workingSet uint64) machine.Params {
	procs := m.Procs
	if procs == 0 {
		procs = 16
	}
	slc := roundLines(workingSet / 128)
	if slc < 4*addrspace.LineSize {
		slc = 4 * addrspace.LineSize // at least one 4-way set
	}
	// The paper fixes the L1 at 4 KB against multi-MB working sets; with
	// scaled-down working sets the L1 scales too (WS/512, clamped), to
	// preserve the L1:WS ratio the traffic results depend on.
	l1 := roundLines(workingSet / 512)
	if l1 < 512 {
		l1 = 512
	}
	if l1 > 4096 {
		l1 = 4096
	}
	amPerProc := roundLines(workingSet / uint64(m.Pressure.K))
	if m.ScalePressure {
		amPerProc = roundLines(workingSet * 16 / (uint64(m.Pressure.K) * uint64(procs)))
	}
	ways := m.AMWays
	if ways <= 0 {
		ways = 4
	}
	if amPerProc < uint64(ways*addrspace.LineSize) {
		amPerProc = uint64(ways * addrspace.LineSize)
	}
	p := machine.DefaultParams(procs, m.ProcsPerNode, int(slc), int(amPerProc))
	p.L1Bytes = int(l1)
	p.AMWays = ways
	p.DRAMBandwidth = nz(m.DRAMBandwidth)
	p.NCBandwidth = nz(m.NCBandwidth)
	p.BusBandwidth = nz(m.BusBandwidth)
	p.Inclusive = m.Inclusive
	p.Policy = m.Policy
	if m.Topology == machine.TopologyRing {
		clusters := m.Clusters
		if clusters == 0 {
			clusters = p.Nodes()
		}
		lat := machine.DefaultLinkLatency
		switch {
		case m.LinkLatencyNs > 0:
			lat = engine.Time(m.LinkLatencyNs)
		case m.LinkLatencyNs < 0:
			lat = 0
		}
		p.Topology = machine.Topology{
			Kind:          machine.TopologyRing,
			Clusters:      clusters,
			LinkLatency:   lat,
			LinkBandwidth: m.LinkBandwidth,
		}
	} else if m.Topology != "" && m.Topology != machine.TopologyBus {
		// Unknown kinds flow through so machine.Params.Validate rejects
		// them instead of silently simulating a bus.
		p.Topology.Kind = m.Topology
	}
	p.Fidelity = m.Fidelity.Params()
	return p
}

func nz(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func roundLines(b uint64) uint64 {
	if b%addrspace.LineSize != 0 {
		b += addrspace.LineSize - b%addrspace.LineSize
	}
	return b
}
