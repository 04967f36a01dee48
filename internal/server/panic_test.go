package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/server/store"
	"repro/internal/trace"
)

// panicCompute fails the way a simulator bug would.
func panicCompute(context.Context) ([]byte, error) { panic("simulator bug") }

// wantPanic500 asserts a request failed with the panic as a 500.
func wantPanic500(t *testing.T, err error) {
	t.Helper()
	if err == nil || errStatus(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "simulator bug") {
		t.Fatalf("err = %v (status %d), want a 500 naming the panic", err, errStatus(err))
	}
}

// checkPanicContained asserts a panicked computation left no flight
// behind and stored nothing, and that the next identical request
// computes again.
func checkPanicContained(t *testing.T, srv *Server, key store.Key) {
	t.Helper()
	srv.flightsMu.Lock()
	open := len(srv.flights)
	srv.flightsMu.Unlock()
	if open != 0 || srv.counters.activeFlights.Load() != 0 {
		t.Fatalf("%d flights open, active_flights = %d after the panic; want none", open, srv.counters.activeFlights.Load())
	}
	if _, ok := srv.store.Get(key); ok {
		t.Fatal("a panicked computation was stored")
	}
	computed := false
	body, src, err := srv.execute(context.Background(), key, false, 1, func(context.Context) ([]byte, error) {
		computed = true
		return []byte("ok"), nil
	})
	if err != nil || !computed || src != srcCompute || string(body) != "ok" {
		t.Fatalf("next identical request: computed=%v src=%s err=%v, want a fresh compute", computed, src, err)
	}
}

func TestComputePanicSync(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	key := store.KeyOf([]byte("panic-sync"))
	_, _, err := srv.execute(context.Background(), key, false, 1, panicCompute)
	wantPanic500(t, err)
	checkPanicContained(t, srv, key)
}

func TestComputePanicAsync(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	key := store.KeyOf([]byte("panic-async"))
	rec := httptest.NewRecorder()
	srv.respondAsync(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate?async=1", nil),
		key, false, 1, "application/json", panicCompute)
	var jv JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &jv); err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(context.Background(), jv.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err) // the daemon died with the job's goroutine
	}
	if done.Status != JobFailed || !strings.Contains(done.Error, "simulator bug") {
		t.Fatalf("job = %+v, want failed with the panic", done)
	}
	checkPanicContained(t, srv, key)
}

func TestComputePanicCollapsedWaiters(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	key := store.KeyOf([]byte("panic-collapsed"))
	const waiters = 16
	release := make(chan struct{})
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := srv.execute(context.Background(), key, false, 1, func(ctx context.Context) ([]byte, error) {
				<-release
				return panicCompute(ctx)
			})
			errs <- err
		}()
	}
	// Panic only once every other caller has attached to the flight.
	deadline := time.Now().Add(10 * time.Second)
	for srv.counters.flightsCollapsed.Load() < waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers collapsed", srv.counters.flightsCollapsed.Load(), waiters-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < waiters; i++ {
		wantPanic500(t, <-errs)
	}
	checkPanicContained(t, srv, key)
}

// badReleaseTrace releases a lock no processor holds, which the
// simulator refuses by panicking.
func badReleaseTrace(procs int) *trace.Trace {
	b := trace.NewBuilder("bad-release", procs)
	b.MeasureStart()
	b.Release(0, 1, 0)
	return b.Build(1 << 16)
}

// A workload that panics while its trace is generated or while it is
// simulated fails its requests, on the sync, async and study paths
// alike, and the daemon keeps serving. A study runs both on the runner's
// pool workers, out of reach of the flight's recover.
func TestWorkloadPanicIsAnError(t *testing.T) {
	saved := apps.Extras
	apps.Extras = append(append([]apps.App(nil), saved...),
		apps.App{Name: "panics", Generate: func(int) *trace.Trace { panic("invalid generated trace") }},
		apps.App{Name: "bad-release", Generate: badReleaseTrace})
	t.Cleanup(func() { apps.Extras = saved })

	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	for app, msg := range map[string]string{
		"panics":      "invalid generated trace",
		"bad-release": "releases lock 1 it does not hold",
	} {
		req := SimRequest{App: app, Procs: 8, MP: "6%"}
		if _, _, err := c.Simulate(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: sync simulate: %v, want a 500 naming the panic", app, err)
		}
		jv, err := c.SimulateAsync(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := c.Wait(ctx, jv.ID, 5*time.Millisecond); err != nil || done.Status != JobFailed || !strings.Contains(done.Error, msg) {
			t.Fatalf("%s: async job = %+v, %v; want failed with the panic", app, done, err)
		}
		if _, _, err := c.Study(ctx, "sweep", StudyRequest{Procs: 8, Apps: []string{app}}); err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: sweep study: %v, want it to fail with the panic", app, err)
		}
		if err := c.Healthz(ctx); err != nil {
			t.Fatalf("%s: daemon down after the panics: %v", app, err)
		}
		if srv.counters.activeFlights.Load() != 0 {
			t.Fatalf("%s: flights left open", app)
		}
	}
}
