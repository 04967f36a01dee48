package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics a result must carry, with their units.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// layerTarget annotates one per-layer metric of BENCHMARK.json: the
// end-to-end metric a change to its layer should move, and the workloads
// that measure the layer. The other workloads report 0 for it.
type layerTarget struct {
	name, moves, workloads string
}

// layerTargets annotates every per-layer metric. Names with a "<cell>"
// placeholder stand for one metric per simulation cell.
var layerTargets = []layerTarget{
	{"apps.generate_s", "setup_s", "sim-exact sim-sampled"},
	{"apps.alloc_mb", "setup_s", "sim-exact sim-sampled"},
	{"apps.generate_ms.fft8", "latency_ms_p50", "serve-fill"},
	{"trace.decode_ms_per_mb", "server.upload_ms_p50", "serve-fill"},
	{"machine.run_s", "throughput_per_s", "sim-exact sim-sampled serve-fill"},
	{"machine.ns_per_ref.<cell>", "throughput_per_s", "sim-exact sim-sampled"},
	{"machine.new_ms.<cell>", "live_heap_mb_p95", "sim-exact sim-sampled"},
	{"machine.alloc_mb", "live_heap_mb_p95", "sim-exact sim-sampled"},
	{"fidelity.fast_ref_share.<cell>", "throughput_per_s", "sim-sampled"},
	// Model counts: a change meant only to speed the simulator up must
	// leave these exactly equal.
	{"sim.exec_ns", "none (must stay equal)", "sim-exact sim-sampled"},
	{"sim.read_node_misses", "none (must stay equal)", "sim-exact sim-sampled"},
	{"sim.injects", "none (must stay equal)", "sim-exact sim-sampled"},
	{"sim.bus_busy_ns", "none (must stay equal)", "sim-exact sim-sampled"},
	{"experiments.pool_busy_ratio", "throughput_per_s", "sim-exact sim-sampled"},
	{"experiments.tail_s", "throughput_per_s", "sim-exact sim-sampled"},
	{"server.canonicalize_us_p50", "latency_ms_p50", "serve-hits serve-fill"},
	{"server.store_lookup_us_p50", "latency_ms_p50", "serve-hits serve-fill"},
	{"server.self_ms_p50", "latency_ms_p50", "serve-hits serve-fill"},
	{"server.peer_fill_ms_p50.hit", "latency_ms_tail", "serve-hits"},
	{"server.peer_fill_ms_p50.miss", "latency_ms_p50", "serve-fill"},
	{"server.queue_wait_ms_p50", "latency_ms_p50", "serve-fill"},
	{"server.simulate_ms_p50", "latency_ms_p50", "serve-fill"},
	{"server.upload_ms_p50", "none (upload latency seen by clients)", "serve-fill"},
	{"server.source_local", "latency_ms_p50", "serve-hits serve-fill"},
	{"server.source_peer", "latency_ms_tail", "serve-hits serve-fill"},
	{"server.source_compute", "latency_ms_tail", "serve-hits serve-fill"},
	{"fleet.peer_fill_ratio", "latency_ms_tail", "serve-hits serve-fill"},
	{"store.hit_ratio", "latency_ms_p50", "serve-hits serve-fill"},
	{"store.get_us", "latency_ms_p50", "serve-hits serve-fill"},
	{"store.put_us", "latency_ms_p50", "serve-hits serve-fill"},
	{"server.canonical_key_us", "latency_ms_p50", "serve-hits serve-fill"},
	{"obs.fleet_metrics_ms_p50", "latency_ms_tail", "serve-hits"},
	{"obs.prom_render_ms", "latency_ms_tail", "serve-hits serve-fill"},
	{"obs.parse_ms", "latency_ms_tail", "serve-hits serve-fill"},
	{"loadgen.lag_ms_p99", "none (generator health)", "serve-hits serve-fill"},
	{"trace_overhead_pct", "none (tracing cost)", "sim-exact sim-sampled serve-hits serve-fill"},
}

// targetOf returns the annotation of a per-layer metric, expanding
// "<cell>" placeholders.
func targetOf(name string) (layerTarget, bool) {
	for _, t := range layerTargets {
		if t.name == name {
			return t, true
		}
		if !strings.Contains(t.name, "<cell>") {
			continue
		}
		for _, c := range simCells() {
			if strings.Replace(t.name, "<cell>", c.name, 1) == name {
				t.name = name
				return t, true
			}
		}
	}
	return layerTarget{}, false
}
