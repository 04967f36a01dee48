package server

import (
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/server/store"
)

// schemaVersion is baked into every content-address so results computed
// by an incompatible request or response schema can never be served from
// the store. Bump it together with intended timing-model or rendering
// changes (the same events that regenerate the CLI goldens).
//
// v2: topology request fields (ring-of-clusters interconnect) and the
// widened Timeline (link occupancy series).
//
// v3: execution-fidelity request fields (sampled fast-forward) and the
// fidelity report in SimResult. Exact and sampled runs of the same
// machine must never share a content address — sampled execution times
// were estimates. Sampled fidelity has since been removed from the API;
// the canonical form keeps its exact spelling (see canonSim).
//
// v4: simulate-by-reference (the trace_ref field): a v4 request can name
// an uploaded trace instead of a registered workload, and the machine
// size comes from the trace, so a v3 cache entry keyed without the field
// must never answer a v4 request.
const schemaVersion = 4

// SimRequest is the body of POST /v1/simulate: one (workload, machine
// configuration) run. Zero fields take the paper's defaults, mirroring
// cmd/comasim's flags; the canonical form spells every default out so
// equivalent requests hash to the same content address.
type SimRequest struct {
	// App is the workload name (see GET /v1/workloads). Exactly one of
	// App and TraceRef must be set.
	App string `json:"app,omitempty"`
	// TraceRef names an uploaded trace by its content digest (the 64-hex
	// "digest" POST /v1/traces reported) instead of a registered
	// workload. The machine size comes from the trace, so Procs must be
	// left unset.
	TraceRef string `json:"trace_ref,omitempty"`
	// Procs is the machine size (default 16, the paper's). Invalid with
	// TraceRef.
	Procs int `json:"procs,omitempty"`
	// ProcsPerNode is the clustering degree (default 1).
	ProcsPerNode int `json:"procs_per_node,omitempty"`
	// MP is the memory-pressure label: 6%, 50%, 75%, 81%, 87%
	// (default 50%).
	MP string `json:"mp,omitempty"`
	// AMWays is the attraction-memory associativity (default 4).
	AMWays int `json:"am_ways,omitempty"`
	// Bandwidth multipliers, 1.0 = paper baseline.
	DRAMBandwidth float64 `json:"dram_bw,omitempty"`
	NCBandwidth   float64 `json:"nc_bw,omitempty"`
	BusBandwidth  float64 `json:"bus_bw,omitempty"`
	// Inclusive selects the inclusive hierarchy (default true).
	Inclusive *bool `json:"inclusive,omitempty"`
	// WriteUpdate selects the write-update protocol ablation.
	WriteUpdate bool `json:"write_update,omitempty"`
	// Topology selects the interconnect: "bus" (default) or "ring".
	Topology string `json:"topology,omitempty"`
	// Clusters is the ring's cluster count (default: one cluster per
	// node). Only valid with topology "ring".
	Clusters int `json:"clusters,omitempty"`
	// LinkLatencyNs is the per-hop ring-link latency in nanoseconds:
	// 0 selects the default (40), -1 means explicitly zero. Only valid
	// with topology "ring".
	LinkLatencyNs int `json:"link_latency_ns,omitempty"`
	// LinkBandwidth divides ring-link occupancy (default 1.0). Only
	// valid with topology "ring".
	LinkBandwidth float64 `json:"link_bw,omitempty"`
	// ScalePressure reinterprets the MP fraction against this machine's
	// processor count instead of the paper's 16 (scaled sweeps).
	ScalePressure bool `json:"scale_pressure,omitempty"`
	// Fidelity is the execution fidelity: "exact", the default and the
	// only mode. Any other value is a 400 (sampled fidelity was removed).
	Fidelity string `json:"fidelity,omitempty"`
}

// canonSim is the canonical (fully defaulted) form that is hashed into
// the content address. Field order is fixed by the struct; there are no
// maps, so the encoding is byte-deterministic. Fidelity is always
// "exact" and the three ff_* fields always zero: they stay, spelled as
// before sampled fidelity was removed, so every stored address remains
// valid.
type canonSim struct {
	Schema       int     `json:"schema"`
	Kind         string  `json:"kind"`
	App          string  `json:"app"`
	TraceRef     string  `json:"trace_ref"`
	Procs        int     `json:"procs"`
	ProcsPerNode int     `json:"procs_per_node"`
	MP           string  `json:"mp"`
	AMWays       int     `json:"am_ways"`
	DRAM         float64 `json:"dram_bw"`
	NC           float64 `json:"nc_bw"`
	Bus          float64 `json:"bus_bw"`
	Inclusive    bool    `json:"inclusive"`
	WriteUpdate  bool    `json:"write_update"`
	Topology     string  `json:"topology"`
	Clusters     int     `json:"clusters"`
	LinkLatency  int     `json:"link_latency_ns"`
	LinkBW       float64 `json:"link_bw"`
	ScaleMP      bool    `json:"scale_pressure"`
	Fidelity     string  `json:"fidelity"`
	FFWarmup     int64   `json:"ff_warmup_ns"`
	FFWindow     int64   `json:"ff_window_ns"`
	FFPeriod     int64   `json:"ff_period_ns"`
}

// normalize validates the request, fills defaults in place, and returns
// the machine configuration it describes. A trace_ref request returns
// the zero configuration: its machine size lives in the referenced
// trace, so the caller resolves the geometry with r.geometry(tr.Procs)
// once the trace is loaded.
func (r *SimRequest) normalize() (config.Machine, error) {
	if r.TraceRef != "" {
		if r.App != "" {
			return config.Machine{}, fmt.Errorf("app and trace_ref are mutually exclusive")
		}
		d, err := ParseTraceDigest(r.TraceRef)
		if err != nil {
			return config.Machine{}, err
		}
		r.TraceRef = d
		if r.Procs != 0 {
			return config.Machine{}, fmt.Errorf("procs is derived from the uploaded trace; leave it unset with trace_ref")
		}
	} else {
		if r.App == "" {
			return config.Machine{}, fmt.Errorf("missing required field %q (or trace_ref)", "app")
		}
		if _, err := apps.ByName(r.App); err != nil {
			return config.Machine{}, err
		}
		if r.Procs == 0 {
			r.Procs = 16
		}
	}
	if r.ProcsPerNode == 0 {
		r.ProcsPerNode = 1
	}
	if r.ProcsPerNode < 1 {
		return config.Machine{}, fmt.Errorf("procs_per_node must be positive")
	}
	if r.MP == "" {
		r.MP = "50%"
	}
	if _, err := config.PressureByLabel(r.MP); err != nil {
		return config.Machine{}, err
	}
	if r.AMWays == 0 {
		r.AMWays = 4
	}
	if r.DRAMBandwidth == 0 {
		r.DRAMBandwidth = 1
	}
	if r.NCBandwidth == 0 {
		r.NCBandwidth = 1
	}
	if r.BusBandwidth == 0 {
		r.BusBandwidth = 1
	}
	if r.Inclusive == nil {
		t := true
		r.Inclusive = &t
	}
	switch r.Topology {
	case "":
		r.Topology = "bus"
	case "bus", "ring":
	default:
		return config.Machine{}, fmt.Errorf("unknown topology %q (known: bus, ring)", r.Topology)
	}
	if r.Topology == "bus" {
		if r.Clusters != 0 || r.LinkLatencyNs != 0 || r.LinkBandwidth != 0 {
			return config.Machine{}, fmt.Errorf("clusters, link_latency_ns and link_bw are only valid with topology \"ring\"")
		}
	} else {
		if r.Clusters < 0 {
			return config.Machine{}, fmt.Errorf("clusters must be non-negative (0 means one per node)")
		}
		if r.LinkLatencyNs == 0 {
			r.LinkLatencyNs = int(machine.DefaultLinkLatency)
		}
		if r.LinkLatencyNs < -1 {
			return config.Machine{}, fmt.Errorf("link_latency_ns must be >= -1 (-1 means zero)")
		}
		if r.LinkBandwidth == 0 {
			r.LinkBandwidth = 1
		}
		if r.LinkBandwidth < 0 {
			return config.Machine{}, fmt.Errorf("link_bw must be positive")
		}
	}
	switch r.Fidelity {
	case "", machine.FidelityExact:
		r.Fidelity = machine.FidelityExact
	default:
		return config.Machine{}, fmt.Errorf("fidelity %q: sampled fidelity was removed; the only mode is \"exact\"", r.Fidelity)
	}
	if r.TraceRef != "" {
		// The procs-dependent geometry checks (node divisibility, ring
		// cluster count) wait for the trace; the content address below
		// keeps the request's own spelling (clusters 0 = one per node).
		return config.Machine{}, nil
	}
	return r.geometry(r.Procs)
}

// geometry completes the processor-count-dependent validation deferred
// by normalize and builds the machine configuration. The app path calls
// it from normalize; the trace_ref path calls it in the compute closure
// once the referenced trace — which carries the processor count — has
// been loaded.
func (r *SimRequest) geometry(procs int) (config.Machine, error) {
	if procs < 1 || procs%r.ProcsPerNode != 0 {
		return config.Machine{}, fmt.Errorf("procs (%d) must be a positive multiple of procs_per_node (%d)", procs, r.ProcsPerNode)
	}
	mp, err := config.PressureByLabel(r.MP)
	if err != nil {
		return config.Machine{}, err
	}
	if r.Topology == "ring" {
		nodes := procs / r.ProcsPerNode
		if r.Clusters == 0 {
			r.Clusters = nodes
		}
		if nodes%r.Clusters != 0 {
			return config.Machine{}, fmt.Errorf("%d nodes not divisible into %d ring clusters", nodes, r.Clusters)
		}
	}
	cfg := config.Baseline(r.ProcsPerNode, mp)
	cfg.Procs = procs
	cfg.AMWays = r.AMWays
	cfg.DRAMBandwidth = r.DRAMBandwidth
	cfg.NCBandwidth = r.NCBandwidth
	cfg.BusBandwidth = r.BusBandwidth
	cfg.Inclusive = *r.Inclusive
	cfg.Policy.WriteUpdate = r.WriteUpdate
	cfg.ScalePressure = r.ScalePressure
	if r.Topology == "ring" {
		cfg.Topology = "ring"
		cfg.Clusters = r.Clusters
		cfg.LinkLatencyNs = r.LinkLatencyNs
		cfg.LinkBandwidth = r.LinkBandwidth
	}
	return cfg, nil
}

// CanonicalKey validates the request and returns the content address of
// its canonical form without executing it — the "key" field /v1/simulate
// would report. Clients (the load generator, the CI smoke test) use it
// to route or verify requests offline; the receiver cannot be tricked
// into a different address because it re-canonicalizes independently.
func (r SimRequest) CanonicalKey() (store.Key, error) {
	if _, err := r.normalize(); err != nil {
		return store.Key{}, err
	}
	return r.key(), nil
}

// key content-addresses the normalized request.
func (r *SimRequest) key() store.Key {
	c := canonSim{
		Schema: schemaVersion, Kind: "simulate",
		App: r.App, TraceRef: r.TraceRef,
		Procs: r.Procs, ProcsPerNode: r.ProcsPerNode, MP: r.MP,
		AMWays: r.AMWays, DRAM: r.DRAMBandwidth, NC: r.NCBandwidth,
		Bus: r.BusBandwidth, Inclusive: *r.Inclusive, WriteUpdate: r.WriteUpdate,
		Topology: r.Topology, Clusters: r.Clusters,
		LinkLatency: r.LinkLatencyNs, LinkBW: r.LinkBandwidth,
		ScaleMP: r.ScalePressure, Fidelity: r.Fidelity,
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err) // canonSim is a flat struct; Marshal cannot fail
	}
	return store.KeyOf(b)
}

// StudyRequest is the optional body of POST /v1/studies/{name}. An empty
// body runs the paper's configuration.
type StudyRequest struct {
	// Procs is the machine size (default 16).
	Procs int `json:"procs,omitempty"`
	// Chart renders figures 3-5 as stacked bar charts (the CLI's -chart).
	Chart bool `json:"chart,omitempty"`

	// The remaining fields parameterize the sweep study only (they
	// mirror cmd/sweep's flags) and are rejected elsewhere.
	Apps         []string  `json:"apps,omitempty"`
	ProcsPerNode []int     `json:"ppn,omitempty"`
	MP           []string  `json:"mp,omitempty"`
	AMWays       []int     `json:"ways,omitempty"`
	DRAM         []float64 `json:"dram,omitempty"`
}

// studies maps API study names onto CLI artifact names. The API exposes
// the paper-facing names; RenderArtifact keeps the bytes identical to
// cmd/experiments.
var studies = map[string]string{
	"table1":     "table1",
	"figure2":    "fig2",
	"figure3":    "fig3",
	"figure4":    "fig4",
	"figure5":    "fig5",
	"thresholds": "thresholds",
}

// StudyNames lists the valid study endpoint names (the map above plus
// "sweep"), in API.md order.
func StudyNames() []string {
	return []string{"table1", "figure2", "figure3", "figure4", "figure5", "thresholds", "sweep"}
}

type canonStudy struct {
	Schema int    `json:"schema"`
	Kind   string `json:"kind"`
	Study  string `json:"study"`
	Procs  int    `json:"procs"`
	Chart  bool   `json:"chart"`

	Apps []string  `json:"apps,omitempty"`
	PPN  []int     `json:"ppn,omitempty"`
	MP   []string  `json:"mp,omitempty"`
	Ways []int     `json:"ways,omitempty"`
	DRAM []float64 `json:"dram,omitempty"`
}

// normalize validates the study request against the study name and fills
// defaults, expanding sweep lists to their explicit forms so equivalent
// spellings share a content address.
func (r *StudyRequest) normalize(study string) (experiments.SweepSpec, error) {
	if r.Procs == 0 {
		r.Procs = 16
	}
	if r.Procs < 1 {
		return experiments.SweepSpec{}, fmt.Errorf("procs must be positive")
	}
	if study != "sweep" {
		if _, ok := studies[study]; !ok {
			return experiments.SweepSpec{}, fmt.Errorf("unknown study %q (known: %v)", study, StudyNames())
		}
		if len(r.Apps) != 0 || len(r.ProcsPerNode) != 0 || len(r.MP) != 0 || len(r.AMWays) != 0 || len(r.DRAM) != 0 {
			return experiments.SweepSpec{}, fmt.Errorf("sweep parameters (apps, ppn, mp, ways, dram) are only valid for the sweep study")
		}
		if r.Chart && study != "figure3" && study != "figure4" && study != "figure5" {
			return experiments.SweepSpec{}, fmt.Errorf("chart is only valid for figure3, figure4 and figure5")
		}
		return experiments.SweepSpec{}, nil
	}
	if r.Chart {
		return experiments.SweepSpec{}, fmt.Errorf("chart is not valid for the sweep study")
	}
	if len(r.Apps) == 0 {
		r.Apps = apps.Names()
	}
	for _, a := range r.Apps {
		if _, err := apps.ByName(a); err != nil {
			return experiments.SweepSpec{}, err
		}
	}
	if len(r.ProcsPerNode) == 0 {
		r.ProcsPerNode = []int{1, 2, 4}
	}
	if len(r.MP) == 0 {
		for _, p := range config.Pressures {
			r.MP = append(r.MP, p.Label)
		}
	}
	spec := experiments.SweepSpec{
		Apps:         r.Apps,
		ProcsPerNode: r.ProcsPerNode,
		AMWays:       r.AMWays,
		DRAM:         r.DRAM,
	}
	for _, label := range r.MP {
		p, err := config.PressureByLabel(label)
		if err != nil {
			return experiments.SweepSpec{}, err
		}
		spec.Pressures = append(spec.Pressures, p)
	}
	if len(r.AMWays) == 0 {
		r.AMWays = []int{4}
		spec.AMWays = r.AMWays
	}
	if len(r.DRAM) == 0 {
		r.DRAM = []float64{1}
		spec.DRAM = r.DRAM
	}
	return spec, nil
}

// key content-addresses the normalized study request.
func (r *StudyRequest) key(study string) store.Key {
	c := canonStudy{
		Schema: schemaVersion, Kind: "study", Study: study,
		Procs: r.Procs, Chart: r.Chart,
		Apps: r.Apps, PPN: r.ProcsPerNode, MP: r.MP, Ways: r.AMWays, DRAM: r.DRAM,
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return store.KeyOf(b)
}
