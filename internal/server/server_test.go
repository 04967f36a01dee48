package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// newTestServer starts an httptest server around a fresh daemon with a
// disk store in a temp dir.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Jobs == 0 {
		cfg.Jobs = 4
	}
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := NewClient(ts.URL)
	return srv, c
}

// fastSim is a small, quick simulation request shared by the tests.
func fastSim() SimRequest {
	return SimRequest{App: "fft", Procs: 8, MP: "6%"}
}

func TestHealthzAndWorkloads(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 14 {
		t.Fatalf("workloads = %d, want the paper's 14", len(names))
	}
}

// A repeated identical request must be served from the store without
// running a simulation; the obs/service counters prove it.
func TestSimulateCacheHit(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	res1, env1, err := c.Simulate(ctx, fastSim())
	if err != nil {
		t.Fatal(err)
	}
	if env1.Cached {
		t.Fatal("first request reported cached")
	}
	if res1.ExecTimeNs <= 0 {
		t.Fatalf("exec_time_ns = %d, want > 0", res1.ExecTimeNs)
	}

	res2, env2, err := c.Simulate(ctx, fastSim())
	if err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Fatal("second identical request was not served from the store")
	}
	if env2.Key != env1.Key {
		t.Fatalf("content address changed: %s vs %s", env1.Key, env2.Key)
	}
	if res2 != res1 {
		t.Fatalf("cached result differs:\n%+v\n%+v", res1, res2)
	}

	m := scrapeSamples(t, c)
	if v := m.get(t, "comasrv_sims_executed_total"); v != 1 {
		t.Fatalf("sims_executed = %g, want 1 (second request must not simulate)", v)
	}
	if v := m.get(t, "comasrv_cache_hits_total"); v != 1 {
		t.Fatalf("cache_hits = %g, want 1", v)
	}
	var events float64
	for k := 0; k < obs.NumKinds; k++ {
		events += m.get(t, fmt.Sprintf("comasrv_obs_events_total{kind=%q}", obs.Kind(k)))
	}
	if events == 0 {
		t.Fatal("obs events not aggregated into /metrics")
	}
}

// Equivalent spellings (defaults omitted vs spelled out) share one
// content address.
func TestCanonicalizationConvergesSpellings(t *testing.T) {
	implicit := SimRequest{App: "fft", Procs: 8, MP: "6%"}
	tr := true
	explicit := SimRequest{App: "fft", Procs: 8, ProcsPerNode: 1, MP: "6%",
		AMWays: 4, DRAMBandwidth: 1, NCBandwidth: 1, BusBandwidth: 1, Inclusive: &tr}
	if _, err := implicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if implicit.key() != explicit.key() {
		t.Fatal("defaulted and explicit requests hash to different keys")
	}
}

// ?nocache=1 forces recomputation and does not overwrite the store.
func TestSimulateNoCache(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, _, err := c.Simulate(ctx, fastSim()); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodPost, c.Base+"/v1/simulate?nocache=1",
		strings.NewReader(`{"app":"fft","procs":8,"mp":"6%"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env SimEnvelope
	if err := decode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Cached {
		t.Fatal("nocache request reported cached")
	}
	if got := srv.counters.simsExecuted.Load(); got != 2 {
		t.Fatalf("sims_executed = %d, want 2 (nocache must re-simulate)", got)
	}
	if got := srv.counters.cacheBypassed.Load(); got != 1 {
		t.Fatalf("cache_bypassed = %d, want 1", got)
	}
}

// 16 concurrent identical requests collapse onto one simulation.
func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()

	const callers = 16
	var wg sync.WaitGroup
	wg.Add(callers)
	results := make([]SimResult, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			res, _, err := c.Simulate(ctx, fastSim())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	if got := srv.counters.simsExecuted.Load(); got != 1 {
		t.Fatalf("sims_executed = %d, want exactly 1 for %d identical requests", got, callers)
	}
	if got := srv.counters.flightsExecuted.Load(); got != 1 {
		t.Fatalf("flights_executed = %d, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

// The study endpoint's bytes must be identical to the CLI rendering of
// the same artifact.
func TestStudyByteIdenticalToCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure in -short mode")
	}
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	got, cached, err := c.Study(ctx, "figure2", StudyRequest{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first study request reported cached")
	}

	r := experiments.NewRunner()
	r.Procs = 8
	var want bytes.Buffer
	if err := experiments.RenderArtifact(&want, r, "fig2", false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("API study output differs from CLI rendering:\n--- api ---\n%s\n--- cli ---\n%s", got, want.Bytes())
	}

	// And the repeat comes from the store, byte-identical.
	again, cached, err := c.Study(ctx, "figure2", StudyRequest{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("second study request was not served from the store")
	}
	if !bytes.Equal(again, got) {
		t.Fatal("cached study bytes differ")
	}
}

// Async jobs: submit, poll to done, fetch the result envelope.
func TestJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	j, err := c.SimulateAsync(ctx, fastSim())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || (j.Status != JobQueued && j.Status != JobRunning) {
		t.Fatalf("initial job view = %+v", j)
	}
	done, err := c.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != JobDone {
		t.Fatalf("job finished as %s (%s), want done", done.Status, done.Error)
	}
	if done.ResultURL == "" {
		t.Fatal("done job has no result_url")
	}

	resp, err := http.Get(c.Base + done.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	var env SimEnvelope
	if err := decode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if env.Key != done.Key {
		t.Fatalf("result key %s != job key %s", env.Key, done.Key)
	}
	var res SimResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.ExecTimeNs <= 0 {
		t.Fatalf("async result exec_time_ns = %d, want > 0", res.ExecTimeNs)
	}
}

// DELETE on a running job cancels the simulation mid-run: the job
// reaches cancelled, and the flight's context error propagates instead
// of a result.
func TestJobCancellationMidRun(t *testing.T) {
	_, c := newTestServer(t, Config{Jobs: 2})
	ctx := context.Background()

	// A full default sweep at 16 processors takes far longer than the
	// cancellation round-trip below.
	resp, err := http.Post(c.Base+"/v1/studies/sweep?async=1", "application/json",
		strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var j JobView
	if err := decode(resp, &j); err != nil {
		t.Fatal(err)
	}

	// Give the job a moment to leave the queue so we exercise the
	// running→cancelled path, not just queued→cancelled.
	time.Sleep(50 * time.Millisecond)

	v, err := c.Cancel(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != JobCancelled {
		t.Fatalf("after DELETE: status = %s, want cancelled", v.Status)
	}

	// The result endpoint must refuse.
	rresp, err := http.Get(c.Base + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: HTTP %d, want %d", rresp.StatusCode, http.StatusConflict)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/simulate", `{}`, http.StatusBadRequest},                        // missing app
		{"/v1/simulate", `{"app":"bogus"}`, http.StatusBadRequest},           // unknown workload
		{"/v1/simulate", `{"app":"fft","mp":"99%"}`, http.StatusBadRequest},  // unknown pressure
		{"/v1/simulate", `{"app":"fft","unknown":1}`, http.StatusBadRequest}, // unknown field
		{"/v1/simulate", `{"app":"fft","procs":6,"procs_per_node":4}`, http.StatusBadRequest},
		{"/v1/studies/bogus", `{}`, http.StatusNotFound},                   // unknown study
		{"/v1/studies/figure2", `{"apps":["fft"]}`, http.StatusBadRequest}, // sweep-only param
		{"/v1/studies/figure2", `{"chart":true}`, http.StatusBadRequest},   // chart on a table
	}
	for _, tc := range cases {
		if resp := post(tc.path, tc.body); resp.StatusCode != tc.want {
			t.Errorf("POST %s %s: HTTP %d, want %d", tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(c.Base + "/v1/jobs/j999999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// The semaphore clamps, queues FIFO and honours context cancellation.
func TestWeightedSemaphore(t *testing.T) {
	w := newWeighted(2)
	ctx := context.Background()
	if err := w.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Acquire(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Pool is full: a whole-pool acquire must block until both release.
	got := make(chan error, 1)
	go func() { got <- w.Acquire(ctx, 99) }() // clamped to 2
	select {
	case err := <-got:
		t.Fatalf("whole-pool acquire succeeded while full (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Release(1)
	select {
	case err := <-got:
		t.Fatalf("whole-pool acquire succeeded with one slot free (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Release(1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	w.Release(99)

	// Cancellation while queued.
	if err := w.Acquire(ctx, 2); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() { errc <- w.Acquire(cctx, 1) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("queued acquire after cancel: %v, want context.Canceled", err)
	}
	w.Release(2)
}
