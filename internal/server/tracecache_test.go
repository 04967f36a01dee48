package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// While anything still references a generated trace, a second get
// returns that same trace and reports the reuse.
func TestTraceCacheReusesLiveTrace(t *testing.T) {
	var c traceCache
	first, reused, err := c.get("fft", 8)
	if err != nil || reused {
		t.Fatalf("first get: reused=%v err=%v, want a generation", reused, err)
	}
	second, reused, err := c.get("fft", 8)
	if err != nil || !reused || second != first {
		t.Fatalf("second get: reused=%v same=%v err=%v, want the live trace back", reused, second == first, err)
	}
	if other, reused, _ := c.get("fft", 4); reused || other == first {
		t.Fatal("a different processor count must not share the 8-processor trace")
	}
	runtime.KeepAlive(first)
}

// Once the collector has reclaimed a trace, the next get generates it
// again, and the regenerated trace is the registry's trace byte for byte.
func TestTraceCacheRegeneratesAfterCollection(t *testing.T) {
	var c traceCache
	func() {
		if _, _, err := c.get("fft", 8); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC() // nothing references the trace, so this reclaims it
	tr, reused, err := c.get("fft", 8)
	if err != nil || reused {
		t.Fatalf("get after collection: reused=%v err=%v, want a regeneration", reused, err)
	}
	a, err := apps.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.EncodeCompact(), a.Generate(8).EncodeCompact()) {
		t.Fatal("regenerated trace differs from a fresh registry generation")
	}
}

// Concurrent misses on one key wait for a single generation and all
// get its trace.
func TestTraceCacheConcurrentMissesGenerateOnce(t *testing.T) {
	var c traceCache
	const n = 8
	got := make([]*trace.Trace, n)
	generated := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, reused, err := c.get("fft", 8)
			if err != nil {
				t.Error(err)
			}
			got[i], generated[i] = tr, !reused
		}(i)
	}
	wg.Wait()
	gens := 0
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different trace", i)
		}
		if generated[i] {
			gens++
		}
	}
	if gens != 1 {
		t.Fatalf("%d generations for %d concurrent misses, want 1", gens, n)
	}
}

func TestTraceCacheUnknownApp(t *testing.T) {
	var c traceCache
	if _, _, err := c.get("no-such-app", 8); err == nil {
		t.Fatal("unknown app must be an error")
	}
	if len(c.entries) != 0 {
		t.Fatal("an unknown app must not leave a cache entry")
	}
}

// simulateTraced posts req under an explicit trace ID and returns the
// envelope's compacted result body.
func simulateTraced(c *Client, req SimRequest, traceID string) ([]byte, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.Base+"/v1/simulate", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Trace-Id", traceID)
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	var env SimEnvelope
	if err := decode(resp, &env); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, env.Result); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Concurrent cold requests that share one (app, procs) trace go through
// the daemon's cache, say so in their trace.generate spans, and produce
// exactly the bodies a runner without the cache computes for them.
func TestConcurrentColdRequestsShareTraceByteIdentical(t *testing.T) {
	srv, c := newTestServer(t, Config{Jobs: 4})
	// Holding the trace makes every request below reuse it, whatever the
	// collector does meanwhile.
	pinned, _, err := srv.generated.get("fft", 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	reqs := make([]SimRequest, n)
	bodies := make([][]byte, n)
	traceIDs := make([]string, n)
	var wg sync.WaitGroup
	for i := range reqs {
		reqs[i] = fastSim()
		reqs[i].DRAMBandwidth = 1 + float64(i+1)/1e3
		traceIDs[i] = fmt.Sprintf("7eace000000000000000000000000%03d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := simulateTraced(c, reqs[i], traceIDs[i])
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.counters.simsExecuted.Load(); got != n {
		t.Fatalf("sims_executed = %d, want %d distinct cold computes", got, n)
	}
	if tr, reused, _ := srv.generated.get("fft", 8); !reused || tr != pinned {
		t.Fatal("the pinned trace was replaced")
	}
	runtime.KeepAlive(pinned)
	for i, id := range traceIDs {
		td, err := c.Trace(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		var gens []map[string]string
		for _, sp := range td.Spans {
			if sp.Name == "trace.generate" {
				gens = append(gens, sp.Attrs)
			}
		}
		if len(gens) != 1 || gens[0]["app"] != "fft" || gens[0]["procs"] != "8" || gens[0]["reused"] != "true" {
			t.Fatalf("request %d: trace.generate spans %v, want one with app=fft procs=8 reused=true", i, gens)
		}
	}

	for i, req := range reqs {
		cfg, err := req.normalize()
		if err != nil {
			t.Fatal(err)
		}
		r := experiments.NewRunner()
		r.Procs = req.Procs
		res, err := r.Run(req.App, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(newSimResult(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("request %d (dram_bw %g): body differs from an uncached runner's", i, req.DRAMBandwidth)
		}
	}
}
