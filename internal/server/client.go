package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/obs/tracing"
)

// Client is a minimal typed client for the comasrv API, used by the CI
// smoke test and as the documented programmatic entry point. The zero
// value is not usable; construct with NewClient.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient defaults to a client with a generous timeout
	// (simulations are seconds, not milliseconds).
	HTTPClient *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTPClient: &http.Client{Timeout: 10 * time.Minute}}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.httpClient().Do(req)
}

// decode reads resp, translating non-2xx answers into errors carrying
// the server's {"error": ...} message.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

// Simulate runs (or fetches) one simulation and returns the decoded
// result plus the envelope reporting the content address and cache
// disposition.
func (c *Client) Simulate(ctx context.Context, req SimRequest) (SimResult, SimEnvelope, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/simulate", req)
	if err != nil {
		return SimResult{}, SimEnvelope{}, err
	}
	var env SimEnvelope
	if err := decode(resp, &env); err != nil {
		return SimResult{}, SimEnvelope{}, err
	}
	var res SimResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return SimResult{}, SimEnvelope{}, err
	}
	return res, env, nil
}

// Study runs (or fetches) a study and returns its text artifact —
// byte-identical to the cmd/experiments rendering — plus whether it was
// served from the store.
func (c *Client) Study(ctx context.Context, study string, req StudyRequest) (body []byte, cached bool, err error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/studies/"+study, req)
	if err != nil {
		return nil, false, err
	}
	cached = resp.Header.Get("X-Comasrv-Cached") == "true"
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return nil, false, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return nil, false, fmt.Errorf("server: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, cached, nil
}

// SimulateAsync submits a simulation job and returns its initial view.
func (c *Client) SimulateAsync(ctx context.Context, req SimRequest) (JobView, error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/simulate?async=1", req)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	err = decode(resp, &v)
	return v, err
}

// Job fetches the current view of a job.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	err = decode(resp, &v)
	return v, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return JobView{}, err
	}
	var v JobView
	err = decode(resp, &v)
	return v, err
}

// Wait polls a job until it leaves the queued/running states or ctx is
// done.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobView, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			return JobView{}, err
		}
		if v.Status != JobQueued && v.Status != JobRunning {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Trace fetches a retained request trace from the daemon's ring.
func (c *Client) Trace(ctx context.Context, id string) (tracing.TraceData, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/traces/"+id, nil)
	if err != nil {
		return tracing.TraceData{}, err
	}
	var td tracing.TraceData
	err = decode(resp, &td)
	return td, err
}

// UploadTrace uploads a COMATRC2 wire payload (trace.EncodeCompact,
// spec in TRACES.md) and returns the stored metadata; the digest it
// carries is the trace_ref value Simulate accepts.
func (c *Client) UploadTrace(ctx context.Context, payload []byte) (TraceMeta, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/traces", bytes.NewReader(payload))
	if err != nil {
		return TraceMeta{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return TraceMeta{}, err
	}
	var m TraceMeta
	err = decode(resp, &m)
	return m, err
}

// Traces lists the uploaded traces and the active quotas.
func (c *Client) Traces(ctx context.Context) (TraceList, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/traces", nil)
	if err != nil {
		return TraceList{}, err
	}
	var l TraceList
	err = decode(resp, &l)
	return l, err
}

// TraceMeta fetches one uploaded trace's metadata by digest.
func (c *Client) TraceMeta(ctx context.Context, digest string) (TraceMeta, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/traces/"+digest, nil)
	if err != nil {
		return TraceMeta{}, err
	}
	var m TraceMeta
	err = decode(resp, &m)
	return m, err
}

// DeleteTrace drops an uploaded trace by digest.
func (c *Client) DeleteTrace(ctx context.Context, digest string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/traces/"+digest, nil)
	if err != nil {
		return err
	}
	return decode(resp, nil)
}

// FleetInfo fetches the shard's ring membership and peer-reachability
// view; it errors on a single-shard daemon.
func (c *Client) FleetInfo(ctx context.Context) (FleetInfo, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/fleet", nil)
	if err != nil {
		return FleetInfo{}, err
	}
	var fi FleetInfo
	err = decode(resp, &fi)
	return fi, err
}

// MetricsHistory fetches the self-scraped metric series over window at
// step resolution, optionally filtered to the named families (zero
// values accept the server defaults).
func (c *Client) MetricsHistory(ctx context.Context, window, step time.Duration, families []string) (History, error) {
	q := url.Values{}
	if window > 0 {
		q.Set("window", window.String())
	}
	if step > 0 {
		q.Set("step", step.String())
	}
	if len(families) > 0 {
		q.Set("family", strings.Join(families, ","))
	}
	path := "/v1/metrics/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return History{}, err
	}
	var h History
	err = decode(resp, &h)
	return h, err
}

// FleetMetrics fetches the merged fleet-wide metrics view (every
// shard's /metrics scraped by the target shard); it errors on a
// single-shard daemon.
func (c *Client) FleetMetrics(ctx context.Context) (FleetMetricsView, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/fleet/metrics", nil)
	if err != nil {
		return FleetMetricsView{}, err
	}
	var v FleetMetricsView
	err = decode(resp, &v)
	return v, err
}

// SlowRequests fetches the slowest-request exemplars, slowest first.
func (c *Client) SlowRequests(ctx context.Context) (SlowReport, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/debug/slow", nil)
	if err != nil {
		return SlowReport{}, err
	}
	var rep SlowReport
	err = decode(resp, &rep)
	return rep, err
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return err
	}
	return decode(resp, nil)
}

// Workloads lists the registered workload names.
func (c *Client) Workloads(ctx context.Context) ([]string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/workloads", nil)
	if err != nil {
		return nil, err
	}
	var v struct {
		Workloads []string `json:"workloads"`
	}
	err = decode(resp, &v)
	return v.Workloads, err
}
