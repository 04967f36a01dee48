package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// smallTrace is a quick 4-processor kernel for the ingestion tests.
func smallTrace() *trace.Trace {
	return apps.PChase(4, 64, 8)
}

// postRaw uploads raw bytes to /v1/traces and returns the status code
// and body (the typed client hides non-2xx bodies; the rejection tests
// need them).
func postRaw(t *testing.T, base string, payload []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestTraceUploadRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	tr := smallTrace()
	payload := tr.EncodeCompact()

	meta, err := c.UploadTrace(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Digest == "" || meta.Procs != 4 || meta.Name != tr.Name {
		t.Fatalf("bad upload meta: %+v", meta)
	}
	// The record counts are the trace's own, tallied here independently.
	var reads, writes, barriers int64
	for p := range tr.Streams {
		for _, r := range tr.Streams[p].Refs() {
			switch r.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			case trace.Barrier:
				barriers++
			}
		}
	}
	if reads == 0 || writes == 0 || barriers == 0 {
		t.Fatalf("test trace lacks a record kind: %d reads, %d writes, %d barriers", reads, writes, barriers)
	}
	if meta.Reads != reads || meta.Writes != writes || meta.Barriers != barriers {
		t.Fatalf("upload meta counts %d/%d/%d reads/writes/barriers, trace has %d/%d/%d",
			meta.Reads, meta.Writes, meta.Barriers, reads, writes, barriers)
	}
	// Idempotent: identical bytes re-upload to the same digest.
	again, err := c.UploadTrace(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != meta.Digest {
		t.Fatalf("re-upload changed digest: %s vs %s", again.Digest, meta.Digest)
	}

	l, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count != 1 || len(l.Traces) != 1 || l.Traces[0].Digest != meta.Digest {
		t.Fatalf("bad list: %+v", l)
	}

	got, err := c.TraceMeta(ctx, meta.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("GET meta differs: %+v vs %+v", got, meta)
	}

	// ?format=bin returns the exact uploaded bytes.
	resp, err := http.Get(c.Base + "/v1/traces/" + meta.Digest + "?format=bin")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(raw, payload) {
		t.Fatal("binary retrieval is not byte-identical to the upload")
	}

	if err := c.DeleteTrace(ctx, meta.Digest); err != nil {
		t.Fatal(err)
	}
	if l, err = c.Traces(ctx); err != nil || l.Count != 0 {
		t.Fatalf("list after delete: %+v, %v", l, err)
	}
	if _, err := c.TraceMeta(ctx, meta.Digest); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("GET after delete: %v, want 404", err)
	}
	if err := c.DeleteTrace(ctx, meta.Digest); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double delete: %v, want 404", err)
	}
}

// Simulating by trace_ref must reproduce the local RunTrace result
// byte-for-byte, and repeat requests must hit the store.
func TestSimulateByTraceRef(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	tr := smallTrace()
	payload := tr.EncodeCompact()
	meta, err := c.UploadTrace(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}

	req := SimRequest{TraceRef: meta.Digest, ProcsPerNode: 2, MP: "6%"}
	res, env, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if env.Cached {
		t.Fatal("first trace_ref request reported cached")
	}

	// Local reference: same wire round-trip, same configuration.
	decoded, err := trace.DecodeCompact(payload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline(2, config.MP6)
	cfg.Fidelity = config.Fidelity{Mode: "exact"}
	local, err := experiments.NewRunner().RunTrace(decoded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := newSimResult(local); res != want {
		t.Fatalf("simulate-by-ref diverges from local RunTrace:\nserver: %+v\nlocal:  %+v", res, want)
	}

	res2, env2, err := c.Simulate(ctx, SimRequest{TraceRef: meta.Digest, ProcsPerNode: 2, MP: "6%"})
	if err != nil {
		t.Fatal(err)
	}
	if !env2.Cached || env2.Key != env.Key || res2 != res {
		t.Fatalf("repeat trace_ref request not served from the store (cached=%v)", env2.Cached)
	}

	m := scrapeSamples(t, c)
	uploaded, sims, retained := m.get(t, "comasrv_traces_uploaded_total"), m.get(t, "comasrv_trace_sims_total"), m.get(t, "comasrv_traces_retained")
	if uploaded != 1 || sims != 1 || retained != 1 {
		t.Fatalf("trace counters: uploaded=%g sims=%g retained=%g", uploaded, sims, retained)
	}
	_ = srv
}

func TestSimulateTraceRefValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	meta, err := c.UploadTrace(ctx, smallTrace().EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	bad := []SimRequest{
		{TraceRef: meta.Digest, App: "fft"},                    // mutually exclusive
		{TraceRef: meta.Digest, Procs: 8},                      // procs comes from the trace
		{TraceRef: "zz"},                                       // not a digest
		{TraceRef: strings.Repeat("g", 64)},                    // right length, not hex
		{TraceRef: meta.Digest, ProcsPerNode: 3},               // 4 procs not divisible by 3 (deferred geometry)
		{TraceRef: meta.Digest, Topology: "ring", Clusters: 3}, // 4 nodes, 3 clusters
	}
	for i, req := range bad {
		if _, _, err := c.Simulate(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("bad request %d: err = %v, want 400", i, err)
		}
	}
	// Unknown (but well-formed) digest: 404.
	unknown := strings.Repeat("ab", 32)
	if _, _, err := c.Simulate(ctx, SimRequest{TraceRef: unknown}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown digest: err = %v, want 404", err)
	}
}

// Malformed payloads must be rejected with 400 and never crash the
// daemon; quota violations answer 413 and 507.
func TestTraceUploadRejections(t *testing.T) {
	const quota = 32 << 10
	_, c := newTestServer(t, Config{MaxTraceBytes: quota, MaxTraces: 1})
	ctx := context.Background()

	good := smallTrace().EncodeCompact()
	if int64(len(good)) > quota {
		t.Fatalf("test trace too large for the quota under test (%d bytes)", len(good))
	}
	malformed := [][]byte{
		nil,
		[]byte("not a trace"),
		good[:8],
		good[:len(good)-1],
		append(append([]byte{}, good...), 0), // trailing byte
	}
	// Corrupt the version digit.
	flipped := append([]byte{}, good...)
	flipped[7]++
	malformed = append(malformed, flipped)
	for i, p := range malformed {
		status, body := postRaw(t, c.Base, p)
		if status != http.StatusBadRequest {
			t.Fatalf("malformed %d: status %d (%s), want 400", i, status, body)
		}
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal("daemon unhealthy after malformed uploads:", err)
	}

	// Oversized: 413.
	if status, _ := postRaw(t, c.Base, make([]byte, quota+1)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", status)
	}

	// Fill the single quota slot, then a distinct trace must shed 507.
	if _, err := c.UploadTrace(ctx, good); err != nil {
		t.Fatal(err)
	}
	other := apps.PChase(2, 64, 8).EncodeCompact()
	if status, _ := postRaw(t, c.Base, other); status != http.StatusInsufficientStorage {
		t.Fatalf("over-quota upload: want 507")
	}
	// Re-uploading the existing trace stays idempotent at the quota edge.
	if _, err := c.UploadTrace(ctx, good); err != nil {
		t.Fatal(err)
	}
}

// In fleet mode an upload is pushed to the shard owning its content
// address, so a simulate-by-ref landing on any shard can resolve the
// trace without the uploader in its path.
func TestFleetTraceOwnershipRouting(t *testing.T) {
	srvs, clients := newFleetCluster(t, 3, nil)
	ctx := context.Background()
	payload := smallTrace().EncodeCompact()

	meta, err := clients[0].UploadTrace(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	// The push to the owner is asynchronous; wait for the owner shard to
	// hold the payload (it may be shard 0 itself).
	key := traceStoreKey(meta.Digest)
	owner := srvs[0].fleet.ring.Owner([32]byte(key))
	var ownerSrv *Server
	for i, s := range srvs {
		if s.fleet.self.ID == owner.ID {
			ownerSrv = srvs[i]
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := ownerSrv.store.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never reached its owner shard %s", owner.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every shard — uploader, owner, or neither — can simulate by ref.
	for i, c := range clients {
		if _, _, err := c.Simulate(ctx, SimRequest{TraceRef: meta.Digest, MP: "6%"}); err != nil {
			t.Fatalf("shard %d simulate-by-ref: %v", i, err)
		}
	}
}

// A payload persisted by an earlier daemon process stays retrievable and
// runnable by digest even though the in-memory index restarted empty.
func TestTraceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, c1 := newTestServer(t, Config{StoreDir: dir})
	ctx := context.Background()
	meta, err := c1.UploadTrace(ctx, smallTrace().EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	_, c2 := newTestServer(t, Config{StoreDir: dir})
	l, err := c2.Traces(ctx)
	if err != nil || l.Count != 0 {
		t.Fatalf("fresh index not empty: %+v, %v", l, err)
	}
	got, err := c2.TraceMeta(ctx, meta.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("rebuilt meta differs: %+v vs %+v", got, meta)
	}
	// First touch re-indexed it.
	if l, err = c2.Traces(ctx); err != nil || l.Count != 1 {
		t.Fatalf("trace not re-indexed after retrieval: %+v, %v", l, err)
	}
	if _, _, err := c2.Simulate(ctx, SimRequest{TraceRef: meta.Digest}); err != nil {
		t.Fatal("simulate-by-ref after restart:", err)
	}
}
