package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Prometheus text exposition (format 0.0.4), hand-rolled: the repo is
// stdlib-only, and the daemon needs exactly counters, gauges and two
// fixed-bucket histograms — a page of code, not a dependency. GET
// /metrics is the daemon's one metrics surface: the metrics history, the
// SSE stream and the fleet-wide /v1/fleet/metrics merge all derive from
// this rendering.

// durationBuckets are the shared latency bucket bounds in seconds:
// cached hits land in the millisecond buckets, simulations in the
// seconds range, studies up to the request timeout.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// histogram is a fixed-bound cumulative histogram, safe for concurrent
// use. Bounds are upper-inclusive per Prometheus convention; the +Inf
// bucket is implicit.
type histogram struct {
	bounds []float64

	mu     sync.Mutex
	counts []int64 // per-bound, plus the +Inf overflow at the end
	sum    float64
	total  int64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (upper-inclusive)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (one per bound, then +Inf).
func (h *histogram) snapshot() (cum []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.counts))
	var running int64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.total
}

// promWriter accumulates exposition text with the HELP/TYPE bookkeeping.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) header(name, help, typ string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.header(name, help, "counter")
	fmt.Fprintf(&p.b, "%s %d\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	fmt.Fprintf(&p.b, "%s %g\n", name, v)
}

// labeled emits one sample with a single label (caller emits the header
// once and the samples in a fixed order).
func (p *promWriter) labeled(name, label, value string, v int64) {
	fmt.Fprintf(&p.b, "%s{%s=%q} %d\n", name, label, value, v)
}

func (p *promWriter) histogram(name, help string, h *histogram) {
	cum, sum, total := h.snapshot()
	p.header(name, help, "histogram")
	for i, bound := range h.bounds {
		fmt.Fprintf(&p.b, "%s_bucket{le=\"%g\"} %d\n", name, bound, cum[i])
	}
	fmt.Fprintf(&p.b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
	fmt.Fprintf(&p.b, "%s_sum %g\n", name, sum)
	fmt.Fprintf(&p.b, "%s_count %d\n", name, total)
}

// busClassNames labels the bus occupancy classes (coma.TxnClass order).
var busClassNames = [3]string{"read", "write", "replace"}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.renderProm())
}

// renderProm produces the full Prometheus text exposition. It backs GET
// /metrics, the self-scrape loop that feeds the history store, and the
// self slice of the fleet-wide /v1/fleet/metrics merge.
func (s *Server) renderProm() []byte {
	c := &s.counters
	var p promWriter

	// Service counters.
	p.counter("comasrv_requests_total", "HTTP requests received.", c.requests.Load())
	p.counter("comasrv_bad_requests_total", "Requests rejected as malformed.", c.badRequests.Load())
	p.counter("comasrv_sims_executed_total", "Individual simulations executed (cache misses only).", c.simsExecuted.Load())
	p.counter("comasrv_flights_executed_total", "Computations executed after request collapsing.", c.flightsExecuted.Load())
	p.counter("comasrv_flights_collapsed_total", "Requests that attached to an identical in-progress computation.", c.flightsCollapsed.Load())
	p.counter("comasrv_cache_hits_total", "Requests answered from the result store.", c.cacheHits.Load())
	p.counter("comasrv_cache_bypassed_total", "Requests that forced recomputation (nocache).", c.cacheBypassed.Load())
	p.counter("comasrv_jobs_created_total", "Asynchronous jobs accepted.", c.jobsCreated.Load())
	p.counter("comasrv_jobs_cancelled_total", "Asynchronous jobs cancelled by clients.", c.jobsCancelled.Load())
	p.counter("comasrv_jobs_evicted_total", "Finished asynchronous jobs evicted after their TTL.", c.jobsEvicted.Load())
	p.counter("comasrv_simulated_runs_total", "Simulation results produced for /v1/simulate.", c.simulatedRuns.Load())
	p.counter("comasrv_simulated_exec_ns_total", "Simulated (virtual) nanoseconds executed for /v1/simulate.", c.simulatedExecNs.Load())
	p.counter("comasrv_load_shed_total", "Computations rejected with 429 by admission control.", c.loadShed.Load())

	// Uploaded traces (POST /v1/traces and simulate-by-ref).
	p.counter("comasrv_traces_uploaded_total", "Traces accepted by POST /v1/traces.", c.tracesUploaded.Load())
	p.counter("comasrv_traces_deleted_total", "Uploaded traces deleted by clients.", c.tracesDeleted.Load())
	p.counter("comasrv_trace_sims_total", "Simulations executed by trace_ref.", c.traceSims.Load())
	p.gauge("comasrv_traces_retained", "Uploaded traces currently indexed.", float64(s.retainedTraces()))

	// Pool and job occupancy.
	p.gauge("comasrv_active_flights", "Computations currently executing.", float64(c.activeFlights.Load()))
	p.gauge("comasrv_sim_slots", "Simulation pool capacity.", float64(s.pool.Size()))
	p.gauge("comasrv_sim_slots_in_use", "Simulation slots currently held.", float64(s.pool.InUse()))
	p.gauge("comasrv_sim_queue_waiting", "Acquisitions queued for simulation slots.", float64(s.pool.Waiting()))
	queued, running := s.jobCounts()
	p.header("comasrv_jobs", "Asynchronous jobs by live state.", "gauge")
	p.labeled("comasrv_jobs", "status", "queued", queued)
	p.labeled("comasrv_jobs", "status", "running", running)
	p.gauge("comasrv_jobs_retained", "Asynchronous jobs currently held in the job table.", float64(s.retainedJobs()))

	// Fleet: shard identity, ring membership and peer traffic, so a
	// per-shard dashboard can label every series by shard.
	if f := s.fleet; f != nil {
		p.header("comasrv_shard_info", "Fleet shard identity (value is always 1).", "gauge")
		fmt.Fprintf(&p.b, "comasrv_shard_info{shard_id=%q,members=\"%d\",virtual_nodes=\"%d\"} 1\n",
			f.self.ID, f.ring.Len(), f.ring.VirtualNodes())
		p.gauge("comasrv_fleet_members", "Shards in the configured ring membership.", float64(f.ring.Len()))
		peers := f.peerView()
		p.header("comasrv_peer_reachable", "Peer reachability as probed by this shard (1 = reachable).", "gauge")
		for _, peer := range peers {
			v := int64(0)
			if peer.Reachable {
				v = 1
			}
			p.labeled("comasrv_peer_reachable", "peer", peer.ID, v)
		}
		p.header("comasrv_peer_fill_total", "Peer-fill attempts against owner shards by outcome.", "counter")
		p.labeled("comasrv_peer_fill_total", "outcome", "hit", c.peerFillHits.Load())
		p.labeled("comasrv_peer_fill_total", "outcome", "miss", c.peerFillMisses.Load())
		p.labeled("comasrv_peer_fill_total", "outcome", "error", c.peerFillErrors.Load())
		p.header("comasrv_peer_served_total", "Fleet entry reads served to peers by outcome.", "counter")
		p.labeled("comasrv_peer_served_total", "outcome", "hit", c.peerServed.Load())
		p.labeled("comasrv_peer_served_total", "outcome", "miss", c.peerServedMisses.Load())
		p.counter("comasrv_replication_pushed_total", "Hot entries pushed to replica shards.", c.replicationPushed.Load())
		p.counter("comasrv_replication_received_total", "Replica entries accepted from peers.", c.replicationReceived.Load())
		p.counter("comasrv_replication_errors_total", "Failed replication pushes.", c.replicationErrors.Load())
	}

	// Result store.
	st := s.store.Stats()
	p.counter("comasrv_store_mem_hits_total", "Store reads served from memory.", st.MemHits)
	p.counter("comasrv_store_disk_hits_total", "Store reads served from disk.", st.DiskHits)
	p.counter("comasrv_store_misses_total", "Store reads that missed.", st.Misses)
	p.counter("comasrv_store_puts_total", "Results persisted into the store.", st.Puts)
	p.counter("comasrv_store_corrupt_total", "Corrupt store entries healed by recomputation.", st.Corrupt)
	p.gauge("comasrv_store_mem_bytes", "Bytes held by the in-memory result cache.", float64(st.MemBytes))
	p.gauge("comasrv_store_mem_items", "Entries held by the in-memory result cache.", float64(st.MemItems))
	p.gauge("comasrv_store_disk_items", "Entries persisted on disk.", float64(st.DiskItems))

	// Latency histograms.
	p.histogram("comasrv_request_duration_seconds", "End-to-end HTTP request latency.", s.reqDur)
	p.histogram("comasrv_queue_wait_seconds", "Time computations waited for simulation slots.", s.queueWait)

	// Aggregated simulator observability (all executed simulations).
	o := s.obsSink.snapshot()
	p.header("comasrv_obs_events_total", "Simulator instrumentation events by kind.", "counter")
	for k, v := range o.Kinds {
		p.labeled("comasrv_obs_events_total", "kind", obs.Kind(k).String(), v)
	}
	p.header("comasrv_obs_bus_occupancy_ns_total", "Simulated bus occupancy by transaction class.", "counter")
	for i, v := range o.BusOccNs {
		p.labeled("comasrv_obs_bus_occupancy_ns_total", "class", busClassNames[i], v)
	}
	p.counter("comasrv_obs_am_transitions_total", "Attraction-memory state transitions observed.", o.TransitionTotal())
	p.counter("comasrv_obs_wb_stall_ns_total", "Simulated write-buffer stall nanoseconds observed.", o.WBStallNs)

	// Identity.
	p.gauge("comasrv_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())
	p.header("comasrv_build_info", "Build identity (value is always 1).", "gauge")
	fmt.Fprintf(&p.b, "comasrv_build_info{go_version=%q,revision=%q} 1\n", runtime.Version(), buildID.rev)

	return []byte(p.b.String())
}

// LintExposition validates a Prometheus text exposition (format 0.0.4):
// every sample belongs to a family with HELP and TYPE headers, sample
// values parse, histogram bucket counts are cumulative (monotonically
// non-decreasing) and end in a +Inf bucket matching _count. Histogram
// state is tracked per label set (minus the le pair), so a family that
// carries one histogram per shard — the merged /v1/fleet/metrics
// rendering — is linted series by series. The docs conformance test and
// the CI boot smoke run it against a live /metrics scrape so a
// malformed exposition fails the build, not the scrape.
func LintExposition(body string) error {
	help := make(map[string]bool)
	typ := make(map[string]string)
	type histState struct {
		last     float64
		inf      float64
		hasInf   bool
		hasCount bool
	}
	hists := make(map[string]*histState)

	for ln, line := range strings.Split(body, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || name == "" {
				return fmt.Errorf("line %d: malformed HELP", lineNo)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				return fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			switch f[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown type %q", lineNo, f[1])
			}
			typ[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value: %q", lineNo, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q", lineNo, line[sp+1:])
		}
		name := line[:sp]
		labels := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = name[i:]
			name = name[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typ[base] == "histogram" {
				family = base
				break
			}
		}
		if !help[family] {
			return fmt.Errorf("line %d: sample %s has no HELP header", lineNo, name)
		}
		if typ[family] == "" {
			return fmt.Errorf("line %d: sample %s has no TYPE header", lineNo, name)
		}
		if typ[family] == "histogram" {
			group := family + stripLabel(labels, "le")
			st := hists[group]
			if st == nil {
				st = &histState{}
				hists[group] = st
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if v < st.last {
					return fmt.Errorf("line %d: histogram %s bucket counts decrease (%g after %g)", lineNo, group, v, st.last)
				}
				st.last = v
				if strings.Contains(labels, `le="+Inf"`) {
					st.hasInf = true
					st.inf = v
				}
			case strings.HasSuffix(name, "_count"):
				st.hasCount = true
				if st.hasInf && v != st.inf {
					return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", group, v, st.inf)
				}
			}
		}
	}
	for family, st := range hists {
		if !st.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", family)
		}
		if !st.hasCount {
			return fmt.Errorf("histogram %s has no _count", family)
		}
	}
	return nil
}

// stripLabel removes one name="value" pair from a label block, keeping
// the rest intact, so histogram series can be grouped by their identity
// labels without the per-bucket le. Quoted values may contain escaped
// quotes (the exposition uses Go-style %q quoting).
func stripLabel(labels, drop string) string {
	if labels == "" {
		return ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var kept []string
	for i := 0; i < len(inner); {
		eq := strings.IndexByte(inner[i:], '=')
		if eq < 0 {
			kept = append(kept, inner[i:])
			break
		}
		name := inner[i : i+eq]
		j := i + eq + 1 // at the opening quote
		if j < len(inner) && inner[j] == '"' {
			j++
			for j < len(inner) && inner[j] != '"' {
				if inner[j] == '\\' {
					j++
				}
				j++
			}
			j++ // past the closing quote
		}
		pair := inner[i:min(j, len(inner))]
		if name != drop {
			kept = append(kept, pair)
		}
		i = j
		if i < len(inner) && inner[i] == ',' {
			i++
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// jobCounts tallies the live job states for the gauges.
func (s *Server) jobCounts() (queued, running int64) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		switch j.status {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
		j.mu.Unlock()
	}
	return queued, running
}
