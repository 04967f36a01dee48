package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// Traffic shape of the serve workloads.
const (
	fleetShards   = 3
	universeKeys  = 96
	hitsRate      = 300.0 // simulate requests per second, serve-hits
	fillRate      = 10.0  // operations per second, serve-fill
	uploadPercent = 30    // share of serve-fill operations that upload a trace
	pollEvery     = 2 * time.Second
	setupRepeats  = 3
	// A run is a sequence of rounds of roundLen; each spends openShare in
	// the open loop and the rest in the closed-loop capacity phase.
	roundLen  = 2 * time.Second
	openShare = 0.75
	// hitsTraceEvery samples one serve-hits request in this many for
	// daemon span retrieval (serve-fill samples every request).
	hitsTraceEvery = 10
	// tailWindow is the open-loop window (in requests) each serve-hits
	// p90 is taken over; the median window p90 is reported.
	tailWindow = 1000
)

// rig is one in-process comasrv fleet: each shard behind its own
// loopback httptest server, one simulation slot, a memory-only store and
// otherwise default settings.
type rig struct {
	servers []*server.Server
	https   []*httptest.Server
	urls    []string
	ring    *fleet.Ring
}

// handlerSlot lets a listener come up before the daemon it fronts: fleet
// members need each other's URLs at construction time.
type handlerSlot struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *handlerSlot) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func startFleet() (*rig, error) {
	g := &rig{}
	slots := make([]*handlerSlot, fleetShards)
	members := make([]fleet.Member, fleetShards)
	for i := range slots {
		slots[i] = &handlerSlot{}
		ts := httptest.NewServer(slots[i])
		g.https = append(g.https, ts)
		g.urls = append(g.urls, ts.URL)
		members[i] = fleet.Member{ID: shardID(i), URL: ts.URL}
	}
	for i := range slots {
		srv, err := server.New(server.Config{
			Jobs:  1,
			Fleet: &server.FleetConfig{ShardID: members[i].ID, Members: members},
		})
		if err != nil {
			g.close()
			return nil, err
		}
		g.servers = append(g.servers, srv)
		slots[i].mu.Lock()
		slots[i].h = srv
		slots[i].mu.Unlock()
	}
	ring, err := fleet.New(members, 0)
	if err != nil {
		g.close()
		return nil, err
	}
	g.ring = ring
	return g, nil
}

// close drains every listener, then stops the daemons.
func (g *rig) close() {
	for _, ts := range g.https {
		ts.Close()
	}
	for _, s := range g.servers {
		s.Close()
	}
}

// owner returns the index of the shard owning a content address.
func (g *rig) owner(key [sha256.Size]byte) int { return shardIndex(g.ring.Owner(key).ID) }

// shardID names shard i; shardIndex inverts it (-1 for a stranger).
func shardID(i int) string { return fmt.Sprintf("s%d", i) }

func shardIndex(id string) int {
	for i := 0; i < fleetShards; i++ {
		if shardID(i) == id {
			return i
		}
	}
	return -1
}

// simKey is one simulate request with its client-side content address.
type simKey struct {
	body []byte
	key  [sha256.Size]byte
	hex  string
}

func newSimKey(req server.SimRequest) (simKey, error) {
	k, err := req.CanonicalKey()
	if err != nil {
		return simKey{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return simKey{}, err
	}
	return simKey{body: body, key: [sha256.Size]byte(k), hex: k.String()}, nil
}

// universe is the serve workloads' warm key set: the load generator's
// fft/8p/6% universe with perturbed DRAM bandwidth.
func universe() ([]simKey, error) {
	reqs := loadgen.Config{Keys: universeKeys}.Universe()
	out := make([]simKey, len(reqs))
	for i, req := range reqs {
		k, err := newSimKey(req)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// envelope is the part of a simulate response the checks read.
type envelope struct {
	Key    string          `json:"key"`
	Source string          `json:"source"`
	Result json.RawMessage `json:"result"`
}

// client issues the benchmark's requests; its connection pool matches
// the worker count.
func newClient(workers int) *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: workers},
	}
}

// exchange sends one request and reads the whole response; a body is
// sent with the given content type.
func exchange(c *http.Client, method, url, traceID, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// simulate posts one simulate request and decodes its envelope.
func simulate(c *http.Client, url, traceID string, k simKey) (envelope, error) {
	status, b, err := exchange(c, http.MethodPost, url+"/v1/simulate", traceID, "application/json", k.body)
	if err != nil {
		return envelope{}, err
	}
	if status != http.StatusOK {
		return envelope{}, fmt.Errorf("HTTP %d: %.200s", status, b)
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return envelope{}, fmt.Errorf("decoding envelope: %w", err)
	}
	if env.Key != k.hex {
		return env, fmt.Errorf("envelope key %s, client CanonicalKey %s", env.Key, k.hex)
	}
	return env, nil
}

// fleetSetup starts a fleet and warms every universe key at its owner
// shard on the benchmark's workers, returning each key's result body.
func fleetSetup(keys []simKey, c *http.Client, workers int) (*rig, [][]byte, error) {
	g, err := startFleet()
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				env, err := simulate(c, g.urls[g.owner(keys[i].key)], "", keys[i])
				bodies[i], errs[i] = env.Result, err
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			g.close()
			return nil, nil, fmt.Errorf("warming key %d: %w", i, err)
		}
	}
	return g, bodies, nil
}

// setupFleet performs the serve set-up several times (each a fresh
// fleet, warmed, after a host probe), keeps the last fleet and reports
// the median set-up time. The warm bodies of every repetition must agree
// byte for byte.
func setupFleet(r *run, host *hostSpeed, keys []simKey, c *http.Client, workers int) (*rig, [][]byte, error) {
	repeats := setupRepeats
	if r.opts.quick {
		repeats = 1
	}
	var times, refTimes []float64
	var g *rig
	var bodies [][]byte
	for i := 0; i < repeats; i++ {
		if g != nil {
			g.close()
			runtime.GC()
		}
		scale := host.probe()
		t0 := time.Now()
		ng, nb, err := fleetSetup(keys, c, workers)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		times = append(times, t1.Sub(t0).Seconds())
		refTimes = append(refTimes, t1.Sub(t0).Seconds()/scale)
		r.spans.add(fmt.Sprintf("setup-%d", i), "", "perfbench.setup", t0, t1, nil)
		for k := range nb {
			r.attempted++
			if bodies != nil && !bytes.Equal(nb[k], bodies[k]) {
				r.fail("set-up %d: key %d body differs from the first set-up", i, k)
			}
		}
		g, bodies = ng, nb
	}
	r.scaled("setup_s", median(times), median(refTimes))
	return g, bodies, nil
}

// op is one scheduled operation of an open loop.
type op struct {
	at     time.Duration
	kind   int
	index  int // universe key, cold key or payload index
	target int
	trace  string
	// sampled marks the requests whose daemon spans a traced run fetches.
	sampled bool
}

const (
	opWarm = iota
	opCold
	opUpload
	opPoll
)

// traceIDFor derives a request's 32-hex trace ID from the seed and its
// position, so traced runs name the same requests on every repeat.
func traceIDFor(seed int64, phase, i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d/%d/%d", seed, phase, i)))
	return hex.EncodeToString(sum[:16])
}

// outcome is what one operation observed.
type outcome struct {
	kind     int
	lag, lat time.Duration
	source   string
	err      error
}

// openLoop runs ops on the given workers, each op sent no earlier than
// its scheduled time and timed from it, so a stall shows up in the
// latency of every request queued behind it.
func openLoop(ops []op, workers int, do func(op) (string, error)) []outcome {
	out := make([]outcome, len(ops))
	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sched := start.Add(ops[i].at)
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				src, err := do(ops[i])
				out[i] = outcome{kind: ops[i].kind, lag: sent.Sub(sched), lat: time.Since(sched),
					source: src, err: err}
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// closedLoop runs workers back to back for d, worker w drawing its next
// operation from draw(w), and returns the outcomes and the time until the
// last of them completed.
func closedLoop(d time.Duration, workers int, draw func(worker int) op, do func(op) (string, error)) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var out []outcome
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				o := draw(w)
				mu.Unlock()
				t0 := time.Now()
				src, err := do(o)
				t1 := time.Now()
				mu.Lock()
				out = append(out, outcome{kind: o.kind, lat: t1.Sub(t0), source: src, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// phases is what a run of interleaved open- and closed-loop rounds saw.
type phases struct {
	open, closed []outcome
	// done counts the closed loops' counted completions; closedTime is
	// their total time, refTime the same in reference-host time, each
	// round's scaled by the probe just before it.
	done       int
	closedTime time.Duration
	refTime    float64
}

// reportRate sets throughput_per_s to the closed loops' counted
// completions per second.
func (ph phases) reportRate(r *run) {
	r.scaled("throughput_per_s", float64(ph.done)/ph.closedTime.Seconds(), float64(ph.done)/ph.refTime)
}

// runRounds splits a run of length total into rounds of roundLen. Each
// round sends its share of the open-loop schedule ops (which is in time
// order and spans openShare of total), runs a host probe, then runs the
// closed loop for the rest of the round. Both phases so sample the whole
// run, and a slow stretch of a shared host moves a few rounds' figures
// rather than all of one phase.
func runRounds(total time.Duration, ops []op, workers int, do func(op) (string, error),
	host *hostSpeed, draw func(worker int) op, counted func(outcome) bool) phases {

	n := max(1, int(total/roundLen))
	openPer := time.Duration(float64(total)*openShare) / time.Duration(n)
	closedPer := total/time.Duration(n) - openPer
	var ph phases
	next := 0
	for k := 0; k < n; k++ {
		from := time.Duration(k) * openPer
		var slice []op
		for ; next < len(ops) && (ops[next].at < from+openPer || k == n-1); next++ {
			p := ops[next]
			p.at -= from
			slice = append(slice, p)
		}
		ph.open = append(ph.open, openLoop(slice, workers, do)...)
		scale := host.probe()
		outs, elapsed := closedLoop(closedPer, workers, draw, do)
		ph.closed = append(ph.closed, outs...)
		for _, o := range outs {
			if counted(o) {
				ph.done++
			}
		}
		ph.closedTime += elapsed
		ph.refTime += elapsed.Seconds() / scale
	}
	return ph
}

// latencies collects the latencies (ms) of successful outcomes of a kind.
func latencies(outs []outcome, kind int) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.kind == kind && o.err == nil {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

// account counts every outcome as attempted and each error as failed.
func account(r *run, outs []outcome, sources map[string]int64) {
	for _, o := range outs {
		r.attempted++
		if o.err != nil {
			r.fail("op kind %d: %v", o.kind, o.err)
			continue
		}
		if o.source != "" {
			sources[o.source]++
		}
	}
}

// serveLayers derives the per-layer metrics of a traced serve run; open
// holds the open-loop outcomes, whose send lag is the generator's health.
func serveLayers(r *run, g *rig, open []outcome, sources map[string]int64, c *http.Client) {
	var lags []float64
	for _, o := range open {
		lags = append(lags, ms(o.lag))
	}
	r.layer("loadgen.lag_ms_p99", percentile(lags, 0.99))
	r.layer("server.source_local", float64(sources["local"]))
	r.layer("server.source_peer", float64(sources["peer"]))
	r.layer("server.source_compute", float64(sources["compute"]))
	if n := sources["peer"] + sources["compute"]; n > 0 {
		r.layer("fleet.peer_fill_ratio", float64(sources["peer"])/float64(n))
	}
	var hits, lookups int64
	for _, s := range g.servers {
		st := s.Store().Stats()
		hits += st.MemHits + st.DiskHits
		lookups += st.MemHits + st.DiskHits + st.Misses
	}
	if lookups > 0 {
		r.layer("store.hit_ratio", float64(hits)/float64(lookups))
	}
	spanLayers(r)
	promProbe(r, func() (int, []byte, error) {
		return exchange(c, http.MethodGet, g.urls[0]+"/metrics", "", "", nil)
	})
}

// spanLayers reduces the daemon spans a traced run fetched to the
// server-side per-layer medians.
func spanLayers(r *run) {
	byName := map[string][]float64{}
	r.spans.mu.Lock()
	for _, s := range r.spans.spans {
		name := s.Name
		if name == "peer.fill" {
			name += "." + s.Attrs["outcome"]
		}
		byName[name] = append(byName[name], ms(s.dur()))
	}
	r.spans.mu.Unlock()
	set := func(metric, span string, scale float64) {
		if xs := byName[span]; len(xs) > 0 {
			r.layer(metric, median(xs)*scale)
		}
	}
	set("server.canonicalize_us_p50", "canonicalize", 1000)
	set("server.store_lookup_us_p50", "store.lookup", 1000)
	set("server.peer_fill_ms_p50.hit", "peer.fill.hit", 1)
	set("server.peer_fill_ms_p50.miss", "peer.fill.miss", 1)
	set("server.queue_wait_ms_p50", "queue.wait", 1)
	set("server.simulate_ms_p50", "simulate", 1)
	if xs := byName["simulate"]; len(xs) > 0 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		r.layer("machine.run_s", sum/1000)
	}
	var selfMs []float64
	for _, d := range r.spans.selfByName()["POST /v1/simulate"] {
		selfMs = append(selfMs, ms(d))
	}
	if len(selfMs) > 0 {
		r.layer("server.self_ms_p50", median(selfMs))
	}
}

// fetchSpans retrieves a request's daemon trace from the shard that
// served it (and, for a peer fill, the owner's side of the hop) and
// records its spans under the client span that caused it.
func fetchSpans(r *run, c *http.Client, g *rig, shard int, traceID, parent string) {
	spans := getTrace(c, g.urls[shard], traceID)
	fills := map[string]string{} // peer.fill span ID -> peer shard ID
	for _, s := range spans {
		p := "d" + s.ParentID
		if s.ParentID == "" {
			p = parent
		}
		r.spans.addSpan(daemonSpan(r, s, traceID, p))
		if s.Name == "peer.fill" {
			fills["d"+s.SpanID] = s.Attrs["peer"]
		}
	}
	for fillID, peer := range fills {
		i := shardIndex(peer)
		if i < 0 {
			continue
		}
		for _, s := range getTrace(c, g.urls[i], traceID) {
			p := "d" + s.ParentID
			if s.ParentID == "" {
				p = fillID
			}
			r.spans.addSpan(daemonSpan(r, s, traceID, p))
		}
	}
}

// daemonSpanData is one span of GET /v1/traces/{id}.
type daemonSpanData struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id"`
	Name       string            `json:"name"`
	StartUnix  int64             `json:"start_unix_ns"`
	DurationNs int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs"`
}

// getTrace fetches a request trace from one shard; nil when it is gone.
func getTrace(c *http.Client, url, traceID string) []daemonSpanData {
	status, b, err := exchange(c, http.MethodGet, url+"/v1/traces/"+traceID, "", "", nil)
	if err != nil || status != http.StatusOK {
		return nil
	}
	var td struct {
		Spans []daemonSpanData `json:"spans"`
	}
	if json.Unmarshal(b, &td) != nil {
		return nil
	}
	return td.Spans
}

// daemonSpan converts a fetched daemon span onto the run's clock.
func daemonSpan(r *run, s daemonSpanData, traceID, parent string) span {
	start := s.StartUnix - r.spans.base.UnixNano()
	return span{Trace: traceID, ID: "d" + s.SpanID, Parent: parent, Name: s.Name,
		StartNs: start, EndNs: start + s.DurationNs, Attrs: s.Attrs}
}

// tracedDo wraps an operation with a client span and, for sampled
// requests of a traced run, the retrieval of the daemon's spans.
func tracedDo(r *run, c *http.Client, g *rig, do func(op) (string, error)) func(op) (string, error) {
	if !r.traced {
		return do
	}
	return func(o op) (string, error) {
		t0 := time.Now()
		src, err := do(o)
		t1 := time.Now()
		if o.sampled {
			id := r.spans.add(o.trace, "", "loadgen.request", t0, t1, nil)
			fetchSpans(r, c, g, o.target, o.trace, id)
		}
		return src, err
	}
}

// runServeHits drives the warm, read-only fleet workload.
func runServeHits(r *run) error {
	o := r.opts
	workers := runtime.GOMAXPROCS(0)
	c := newClient(workers)
	keys, err := universe()
	if err != nil {
		return err
	}
	host, err := newHostSpeed(workers)
	if err != nil {
		return err
	}
	defer host.close()
	g, bodies, err := setupFleet(r, host, keys, c, workers)
	if err != nil {
		return err
	}
	defer g.close()
	r.startMeasuring()

	dist, err := loadgen.NewDist("zipfian", len(keys), 0.99, o.seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	rr := rng.Intn(fleetShards)
	openDur := time.Duration(float64(o.seconds) * openShare)
	n := int(openDur.Seconds() * hitsRate)
	var ops []op
	nextPoll := time.Duration(0)
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / hitsRate * float64(time.Second))
		if at >= nextPoll {
			ops = append(ops, op{at: at, kind: opPoll, target: rr % fleetShards})
			nextPoll += pollEvery
		}
		ops = append(ops, op{at: at, kind: opWarm, index: dist.Next(), target: rr % fleetShards,
			trace: traceIDFor(o.seed, 0, i), sampled: i%hitsTraceEvery == 0})
		rr++
	}

	var pollMs []float64
	var pollMu sync.Mutex
	do := func(p op) (string, error) {
		url := g.urls[p.target]
		if p.kind == opPoll {
			t0 := time.Now()
			status, b, err := exchange(c, http.MethodGet, url+"/v1/fleet/metrics", "", "", nil)
			if err == nil {
				err = checkFleetView(status, b)
			}
			pollMu.Lock()
			pollMs = append(pollMs, ms(time.Since(t0)))
			pollMu.Unlock()
			return "", err
		}
		env, err := simulate(c, url, p.trace, keys[p.index])
		if err != nil {
			return "", err
		}
		if !bytes.Equal(env.Result, bodies[p.index]) {
			return env.Source, fmt.Errorf("key %d: warm body differs from its set-up body", p.index)
		}
		return env.Source, nil
	}
	traced := tracedDo(r, c, g, do)

	seq := 0
	draw := func(int) op {
		seq++
		p := op{kind: opWarm, index: dist.Next(), target: rr % fleetShards,
			trace: traceIDFor(o.seed, 1, seq), sampled: seq%hitsTraceEvery == 0}
		rr++
		return p
	}
	ph := runRounds(o.seconds, ops, workers, traced, host, draw, func(x outcome) bool {
		return x.err == nil && (x.source == "local" || x.source == "peer")
	})
	open := ph.open

	sources := map[string]int64{}
	account(r, open, sources)
	account(r, ph.closed, sources)
	warm := latencies(open, opWarm)
	ph.reportRate(r)
	// p99 moves with the peer-fill hops but spread 72% between runs on a
	// shared 2-vCPU host, so the bounded tail is p90; p99 is recorded.
	scale := host.scale()
	p50, p90 := median(warm), windowPercentile(warm, 0.90, tailWindow)
	r.scaled("latency_ms_p50", p50, p50/scale)
	r.scaled("latency_ms_tail", p90, p90/scale)
	host.report(r)
	r.info["closed_loop_samples"] = len(ph.closed)
	r.info["warm_ms_p99"] = percentile(warm, 0.99)
	r.layer("obs.fleet_metrics_ms_p50", median(pollMs))
	r.info["latency_tail_percentile"] = fmt.Sprintf("median over windows of %d open-loop warm requests of each window's p90", tailWindow)
	r.info["latency_samples"] = len(warm)
	r.info["fleet_metrics_polls"] = len(pollMs)
	r.info["offered_rps"] = hitsRate
	r.info["workers"] = workers
	r.info["client_connections"] = workers
	r.info["shards"] = fleetShards
	if r.traced {
		serveLayers(r, g, open, sources, c)
		storeProbes(r)
	}
	return nil
}

// checkFleetView accepts a GET /v1/fleet/metrics answer only when it
// reports every shard up, as a dashboard poll would show it.
func checkFleetView(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("fleet metrics: HTTP %d: %.200s", status, body)
	}
	var view server.FleetMetricsView
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("fleet metrics: %w", err)
	}
	if view.UpShards != fleetShards {
		return fmt.Errorf("fleet metrics: %d of %d shards up", view.UpShards, fleetShards)
	}
	return nil
}

// coldKey returns the i-th never-seen simulate request of a run: the
// universe's workload class with a DRAM bandwidth no warm key uses.
func coldKey(base, i int) (simKey, error) {
	return newSimKey(server.SimRequest{App: "fft", Procs: 8, MP: "6%",
		DRAMBandwidth: 1 + float64(1000+base+i)/1e6})
}

// runServeFill drives the write side: never-seen simulate keys and
// distinct trace uploads.
func runServeFill(r *run) error {
	o := r.opts
	workers := runtime.GOMAXPROCS(0)
	c := newClient(workers)
	keys, err := universe()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	openDur := time.Duration(float64(o.seconds) * openShare)
	n := int(openDur.Seconds() * fillRate)
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = opCold
		if i < n*uploadPercent/100 {
			kinds[i] = opUpload
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// Payload templates are client inputs, built before the set-up clock
	// starts; each upload salts a copy at send time.
	templates, err := uploadTemplates()
	if err != nil {
		return err
	}
	host, err := newHostSpeed(workers)
	if err != nil {
		return err
	}
	defer host.close()
	g, _, err := setupFleet(r, host, keys, c, workers)
	if err != nil {
		return err
	}
	defer g.close()
	r.startMeasuring()

	base := rng.Intn(1_000_000)
	rr := rng.Intn(fleetShards)
	var ops []op
	var uploads []upload
	cold, up := 0, 0
	for i, k := range kinds {
		p := op{at: time.Duration(float64(i) / fillRate * float64(time.Second)), kind: k,
			target: rr % fleetShards, trace: traceIDFor(o.seed, 0, i), sampled: true}
		if k == opCold {
			p.index = cold
			cold++
		} else {
			p.index = up
			up++
			uploads = append(uploads, upload{template: rng.Intn(len(templates)), salt: rng.Uint64()})
		}
		ops = append(ops, p)
		rr++
	}
	do := func(p op) (string, error) {
		url := g.urls[p.target]
		if p.kind == opUpload {
			u := uploads[p.index]
			return "", postTrace(c, url, p.trace, saltedPayload(templates[u.template], u.salt))
		}
		k, err := coldKey(base, p.index)
		if err != nil {
			return "", err
		}
		env, err := simulate(c, url, p.trace, k)
		if err != nil {
			return "", err
		}
		if env.Source != "compute" {
			return env.Source, fmt.Errorf("never-seen key %d served from %q", p.index, env.Source)
		}
		var res server.SimResult
		if err := json.Unmarshal(env.Result, &res); err != nil || res.ExecTimeNs <= 0 {
			return env.Source, fmt.Errorf("cold key %d: implausible result (%v)", p.index, err)
		}
		return env.Source, nil
	}
	traced := tracedDo(r, c, g, do)

	// Each closed-loop worker keeps to one shard, so with no more workers
	// than shards no compute waits for another's simulation slot.
	seq := 0
	draw := func(worker int) op {
		p := op{kind: opCold, index: cold + seq, target: worker % fleetShards,
			trace: traceIDFor(o.seed, 1, seq), sampled: true}
		seq++
		return p
	}
	ph := runRounds(o.seconds, ops, workers, traced, host, draw, func(x outcome) bool { return x.err == nil })
	open := ph.open

	sources := map[string]int64{}
	account(r, open, sources)
	account(r, ph.closed, sources)
	coldMs := latencies(open, opCold)
	upMs := latencies(open, opUpload)
	scale := host.scale()
	ph.reportRate(r)
	p50, p90 := median(coldMs), percentile(coldMs, 0.90)
	r.scaled("latency_ms_p50", p50, p50/scale)
	r.scaled("latency_ms_tail", p90, p90/scale)
	host.report(r)
	r.info["closed_loop_samples"] = len(ph.closed)
	r.layer("server.upload_ms_p50", median(upMs))
	r.info["latency_tail_percentile"] = "p90 of open-loop cold simulate requests"
	r.info["latency_samples"] = len(coldMs)
	r.info["upload_samples"] = len(upMs)
	r.info["offered_ops_per_s"] = fillRate
	r.info["upload_percent"] = uploadPercent
	r.info["workers"] = workers
	r.info["client_connections"] = workers
	r.info["shards"] = fleetShards
	if r.traced {
		serveLayers(r, g, open, sources, c)
		storeProbes(r)
		fillProbes(r, templates)
	}
	return nil
}

// upload names one trace upload: its template and salt.
type upload struct {
	template int
	salt     uint64
}

// postTrace posts one COMATRC2 payload and checks the daemon content-
// addressed it by its SHA-256 as a new trace.
func postTrace(c *http.Client, url, traceID string, payload []byte) error {
	status, b, err := exchange(c, http.MethodPost, url+"/v1/traces", traceID, "application/octet-stream", payload)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("upload: HTTP %d (want 201): %.200s", status, b)
	}
	var meta server.TraceMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	sum := sha256.Sum256(payload)
	if want := hex.EncodeToString(sum[:]); meta.Digest != want {
		return fmt.Errorf("upload digest %s, payload sha256 %s", meta.Digest, want)
	}
	return nil
}
