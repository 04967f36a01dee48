package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
)

// swapHandler lets an httptest server come up before the *Server it will
// front exists — fleet members need each other's URLs at construction
// time, so the listeners are created first and the daemons swapped in
// after.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (sh *swapHandler) Set(h http.Handler) {
	sh.mu.Lock()
	sh.h = h
	sh.mu.Unlock()
}

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	h := sh.h
	sh.mu.Unlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// newFleetCluster boots n real shards that know each other's URLs. mod,
// when non-nil, edits each shard's config before construction.
func newFleetCluster(t *testing.T, n int, mod func(i int, cfg *Config)) ([]*Server, []*Client) {
	t.Helper()
	swaps := make([]*swapHandler, n)
	members := make([]fleet.Member, n)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		members[i] = fleet.Member{ID: fmt.Sprintf("s%d", i), URL: ts.URL}
	}
	srvs := make([]*Server, n)
	clients := make([]*Client, n)
	for i := range srvs {
		cfg := Config{
			Jobs:     4,
			StoreDir: t.TempDir(),
			Fleet: &FleetConfig{
				ShardID:       members[i].ID,
				Members:       members,
				PeerTimeout:   500 * time.Millisecond,
				ProbeInterval: -1, // the tests assert on request-driven state
			},
		}
		if mod != nil {
			mod(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		swaps[i].Set(srv)
		srvs[i] = srv
		clients[i] = NewClient(members[i].URL)
	}
	return srvs, clients
}

// simOwnedBy returns a fast simulation request whose content address the
// ring routes to ownerID, found by perturbing the DRAM bandwidth
// multiplier (a knob that changes the key but not the runtime class).
func simOwnedBy(t *testing.T, f *fleetState, ownerID string) SimRequest {
	t.Helper()
	for i := 0; i < 4096; i++ {
		r := fastSim()
		r.DRAMBandwidth = 1 + float64(i)/1e6
		norm := r
		if _, err := norm.normalize(); err != nil {
			t.Fatal(err)
		}
		if f.ring.Owner([sha256.Size]byte(norm.key())).ID == ownerID {
			return r
		}
	}
	t.Fatalf("no request owned by %s in 4096 tries", ownerID)
	return SimRequest{}
}

// A request routed to a non-owner shard is served by peer fill — no
// local simulation — and the filled entry migrates into the local store
// so the next hit is local.
func TestFleetPeerFill(t *testing.T) {
	srvs, clients := newFleetCluster(t, 2, nil)
	ctx := context.Background()
	req := simOwnedBy(t, srvs[0].fleet, "s0")

	res0, env0, err := clients[0].Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if env0.Source != "compute" || env0.Cached {
		t.Fatalf("owner first request: source=%q cached=%v, want compute/false", env0.Source, env0.Cached)
	}

	res1, env1, err := clients[1].Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if env1.Source != "peer" {
		t.Fatalf("non-owner request: source=%q, want peer", env1.Source)
	}
	if env1.Cached {
		t.Fatal("peer-filled response claimed X-Comasrv-Cached semantics (cached=true)")
	}
	if env1.Key != env0.Key || res1 != res0 {
		t.Fatalf("peer-filled result differs from owner's:\nkeys %s vs %s\n%+v\n%+v",
			env1.Key, env0.Key, res1, res0)
	}

	m1 := scrapeSamples(t, clients[1])
	if v := m1.get(t, "comasrv_sims_executed_total"); v != 0 {
		t.Fatalf("non-owner sims_executed = %g, want 0 (peer fill must not simulate)", v)
	}
	if v := m1.get(t, `comasrv_peer_fill_total{outcome="hit"}`); v != 1 {
		t.Fatalf("non-owner peer fill hits = %g, want 1", v)
	}
	if v := scrapeSamples(t, clients[0]).get(t, `comasrv_peer_served_total{outcome="hit"}`); v != 1 {
		t.Fatalf("owner peer served = %g, want 1", v)
	}

	// The filled entry migrated: the non-owner now serves it locally.
	_, env2, err := clients[1].Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if env2.Source != "local" || !env2.Cached {
		t.Fatalf("repeat on non-owner: source=%q cached=%v, want local/true", env2.Source, env2.Cached)
	}

	// Fleet mode stamps the shard identity on every response.
	resp, err := http.Get(clients[1].Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Comasrv-Shard"); got != "s1" {
		t.Fatalf("X-Comasrv-Shard = %q, want s1", got)
	}
}

// Every peer failure mode degrades to recompute: the client always gets
// a correct 200, never an error caused by fleet internals.
func TestFleetPeerFallbackMatrix(t *testing.T) {
	cases := []struct {
		name   string
		peer   http.HandlerFunc // nil = listener closed (peer down)
		errors bool             // expect peer_fill_errors, else peer_fill_misses
	}{
		{name: "down", peer: nil, errors: true},
		{name: "slow", errors: true, peer: func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond) // > PeerTimeout below
		}},
		{name: "corrupt", errors: true, peer: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(checksumHeader, strings.Repeat("00", 32))
			w.Write([]byte("not the payload the checksum promises"))
		}},
		{name: "badstatus", errors: true, peer: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "internal", http.StatusInternalServerError)
		}},
		{name: "miss", errors: false, peer: func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, `{"error":"no entry"}`, http.StatusNotFound)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := httptest.NewServer(tc.peer)
			if tc.peer == nil {
				fake.Close() // connection refused
			} else {
				t.Cleanup(fake.Close)
			}
			selfSwap := &swapHandler{}
			selfTS := httptest.NewServer(selfSwap)
			t.Cleanup(selfTS.Close)
			srv, err := New(Config{
				Jobs:     4,
				StoreDir: t.TempDir(),
				Fleet: &FleetConfig{
					ShardID: "self",
					Members: []fleet.Member{
						{ID: "peer", URL: fake.URL},
						{ID: "self", URL: selfTS.URL},
					},
					PeerTimeout:   150 * time.Millisecond,
					ProbeInterval: -1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			selfSwap.Set(srv)
			c := NewClient(selfTS.URL)

			req := simOwnedBy(t, srv.fleet, "peer")
			res, env, err := c.Simulate(context.Background(), req)
			if err != nil {
				t.Fatalf("peer %s must degrade to recompute, got client error: %v", tc.name, err)
			}
			if env.Source != "compute" {
				t.Fatalf("source = %q, want compute", env.Source)
			}
			if res.ExecTimeNs <= 0 {
				t.Fatalf("recomputed exec_time_ns = %d, want > 0", res.ExecTimeNs)
			}
			m := scrapeSamples(t, c)
			if tc.errors && m.get(t, `comasrv_peer_fill_total{outcome="error"}`) == 0 {
				t.Fatal("want peer fill errors > 0")
			}
			if !tc.errors && m.get(t, `comasrv_peer_fill_total{outcome="miss"}`) == 0 {
				t.Fatal("want peer fill misses > 0")
			}
		})
	}
}

// A caller-supplied trace ID is propagated across the peer-fill hop: the
// entry shard's trace carries a peer.fill span whose peer_trace_id
// matches, and the owner shard retains a trace under the same ID.
func TestFleetTraceStitching(t *testing.T) {
	srvs, clients := newFleetCluster(t, 2, nil)
	ctx := context.Background()
	req := simOwnedBy(t, srvs[0].fleet, "s0")
	if _, _, err := clients[0].Simulate(ctx, req); err != nil {
		t.Fatal(err)
	}

	traceID := strings.Repeat("ab", 16)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, clients[1].Base+"/v1/simulate", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed request: HTTP %d", resp.StatusCode)
	}

	td, err := clients[1].Trace(ctx, traceID)
	if err != nil {
		t.Fatal(err)
	}
	var fill *int
	for i, sp := range td.Spans {
		if sp.Name == "peer.fill" {
			fill = &i
			break
		}
	}
	if fill == nil {
		t.Fatalf("entry shard trace has no peer.fill span: %+v", td.Spans)
	}
	sp := td.Spans[*fill]
	if sp.Attrs["peer"] != "s0" || sp.Attrs["outcome"] != "hit" {
		t.Fatalf("peer.fill attrs = %v, want peer=s0 outcome=hit", sp.Attrs)
	}
	if sp.Attrs["peer_trace_id"] != traceID {
		t.Fatalf("peer_trace_id = %q, want %q (trace not stitched)", sp.Attrs["peer_trace_id"], traceID)
	}

	// The owner adopted the propagated ID: one logical trace, two shards.
	peerTD, err := clients[0].Trace(ctx, traceID)
	if err != nil {
		t.Fatalf("owner shard retained no trace under the propagated ID: %v", err)
	}
	if len(peerTD.Spans) == 0 {
		t.Fatal("owner shard trace is empty")
	}
}

// A hot entry (hit count at the replication threshold) is pushed to its
// replica set in the background.
func TestFleetReplication(t *testing.T) {
	srvs, clients := newFleetCluster(t, 3, func(i int, cfg *Config) {
		cfg.Fleet.Replicas = 2
		cfg.Fleet.ReplicateAfter = 2
	})
	ctx := context.Background()
	req := simOwnedBy(t, srvs[0].fleet, "s0")
	norm := req
	if _, err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	key := norm.key()
	reps := srvs[0].fleet.ring.Replicas([sha256.Size]byte(key), 2)
	if len(reps) != 2 || reps[0].ID != "s0" {
		t.Fatalf("replica set = %+v, want owner s0 first plus one successor", reps)
	}
	var secondary *Server
	for i, s := range srvs {
		if s.fleet.self.ID == reps[1].ID {
			secondary = srvs[i]
		}
	}

	// First request computes and stores; two more hits trip the
	// threshold (ReplicateAfter=2).
	for i := 0; i < 3; i++ {
		if _, _, err := clients[0].Simulate(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// The secondary stores the entry before it counts the receipt, and
	// the owner counts the push only once the PUT's response arrives, so
	// wait for all three.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, ok := secondary.store.Get(key)
		pushed := srvs[0].counters.replicationPushed.Load()
		received := secondary.counters.replicationReceived.Load()
		if ok && pushed >= 1 && received >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication to %s: stored=%v, owner replication_pushed = %d, secondary replication_received = %d; want stored and both >= 1",
				reps[1].ID, ok, pushed, received)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// On a single-shard daemon the fleet endpoints answer 404 and no fleet
// fields leak into envelopes or health — byte-identity with pre-fleet
// responses.
func TestFleetDisabledSingleShard(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := c.FleetInfo(ctx); err == nil || !strings.Contains(err.Error(), "fleet mode is not enabled") {
		t.Fatalf("GET /v1/fleet on single shard: err = %v, want fleet-disabled 404", err)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/fleet/entries/" + strings.Repeat("00", 32)},
		{http.MethodPut, "/v1/fleet/entries/" + strings.Repeat("00", 32)},
	} {
		hr, err := http.NewRequest(req.method, c.Base+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: HTTP %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}

	_, env, err := c.Simulate(ctx, fastSim())
	if err != nil {
		t.Fatal(err)
	}
	if env.Source != "" {
		t.Fatalf("single-shard envelope leaked source=%q", env.Source)
	}
	resp, err := http.Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Comasrv-Shard"); got != "" {
		t.Fatalf("single-shard response has X-Comasrv-Shard = %q", got)
	}
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.ShardID != "" || h.Fleet != nil {
		t.Fatalf("single-shard healthz leaked fleet identity: %+v", h)
	}
}

// Fleet health and info surfaces report shard identity and membership.
func TestFleetHealthAndInfo(t *testing.T) {
	srvs, clients := newFleetCluster(t, 3, nil)
	_ = srvs
	ctx := context.Background()

	fi, err := clients[1].FleetInfo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fi.ShardID != "s1" || len(fi.Members) != 3 || len(fi.Peers) != 2 {
		t.Fatalf("fleet info = %+v, want shard s1 of 3 with 2 peers", fi)
	}

	resp, err := http.Get(clients[1].Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.ShardID != "s1" || h.Fleet == nil || len(h.Fleet.Members) != 3 {
		t.Fatalf("fleet healthz = %+v, want shard_id=s1 and 3 members", h)
	}
}

// When the queue bound is hit, the daemon sheds with 429 + Retry-After
// instead of queueing without limit.
func TestLoadShed429(t *testing.T) {
	srv, c := newTestServer(t, Config{Jobs: 1, MaxQueue: 1})
	ctx := context.Background()

	// Occupy the single slot with a long-running async study.
	resp, err := http.Post(c.Base+"/v1/studies/sweep?async=1", "application/json",
		strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var j JobView
	if err := decode(resp, &j); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("study to hold the pool", func() bool { return srv.pool.InUse() > 0 })

	// Fill the one queue slot with a blocked simulate.
	qctx, qcancel := context.WithCancel(ctx)
	defer qcancel()
	queued := make(chan error, 1)
	go func() {
		r := fastSim()
		r.DRAMBandwidth = 1.000001
		_, _, err := c.Simulate(qctx, r)
		queued <- err
	}()
	waitFor("simulate to queue", func() bool { return srv.pool.Waiting() == 1 })

	// The next computation must be shed, not queued.
	shed := fastSim()
	shed.DRAMBandwidth = 1.000002
	body, _ := json.Marshal(shed)
	sresp, err := http.Post(c.Base+"/v1/simulate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated simulate: HTTP %d, want 429", sresp.StatusCode)
	}
	if ra := sresp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response has no Retry-After header")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "queue is full") {
		t.Fatalf("shed error body = %q (%v)", e.Error, err)
	}

	if v := scrapeSamples(t, c).get(t, "comasrv_load_shed_total"); v != 1 {
		t.Fatalf("load_shed = %g, want 1", v)
	}

	// Unwind: cancel the study and the queued request.
	if _, err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	qcancel()
	<-queued
}

// AcquireBounded queues up to the bound and sheds beyond it.
func TestAcquireBounded(t *testing.T) {
	w := newWeighted(1)
	ctx := context.Background()
	if err := w.AcquireBounded(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- w.AcquireBounded(ctx, 1, 1) }()
	deadline := time.Now().Add(2 * time.Second)
	for w.Waiting() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second acquire never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.AcquireBounded(ctx, 1, 1); err != errSaturated {
		t.Fatalf("over-bound acquire: %v, want errSaturated", err)
	}
	w.Release(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	w.Release(1)

	// maxQueue <= 0 means unbounded: the old behavior.
	if err := w.AcquireBounded(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	w.Release(1)
}

// Finished jobs are evicted after the TTL; the registry does not grow
// without bound.
func TestJobTTLEviction(t *testing.T) {
	_, c := newTestServer(t, Config{JobTTL: 40 * time.Millisecond})
	ctx := context.Background()

	j, err := c.SimulateAsync(ctx, fastSim())
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, j.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone {
		t.Fatalf("job finished as %s, want done", done.Status)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(c.Base + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never evicted (last HTTP %d)", j.ID, resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}

	m := scrapeSamples(t, c)
	if v := m.get(t, "comasrv_jobs_evicted_total"); v < 1 {
		t.Fatalf("jobs_evicted = %g, want >= 1", v)
	}
	if v := m.get(t, "comasrv_jobs_retained"); v != 0 {
		t.Fatalf("jobs_retained = %g, want 0", v)
	}
}
