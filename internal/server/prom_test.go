package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs/tsdb"
)

// promSamples is one /metrics page: every sample's value keyed by its
// series as exposed, `name` or `name{label="v",...}`.
type promSamples map[string]float64

// parseSamples reads the samples of a text exposition.
func parseSamples(t *testing.T, body string) promSamples {
	t.Helper()
	sc, err := tsdb.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	s := make(promSamples, len(sc.Samples))
	for _, smp := range sc.Samples {
		s[smp.Key()] = smp.Value
	}
	return s
}

// scrapeSamples fetches and parses c's GET /metrics.
func scrapeSamples(t *testing.T, c *Client) promSamples {
	t.Helper()
	resp, err := c.httpClient().Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseSamples(t, string(b))
}

// get returns one series' value; a series the page lacks fails the test.
func (s promSamples) get(t *testing.T, series string) float64 {
	t.Helper()
	v, ok := s[series]
	if !ok {
		t.Fatalf("metric %s not found", series)
	}
	return v
}

func TestHistogram(t *testing.T) {
	h := newHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	cum, sum, total := h.snapshot()
	// le="1" is upper-inclusive: 0.5 and 1 land there.
	want := []int64{2, 4, 5, 6} // cumulative: le=1, le=10, le=100, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if total != 6 || sum != 0.5+1+1.5+10+99+1000 {
		t.Errorf("total=%d sum=%g", total, sum)
	}
}

// The exposition endpoint serves well-formed Prometheus text with the
// service's counters reflecting real activity.
func TestPromMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	if _, _, err := c.Simulate(ctx, fastSim()); err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpClient().Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)

	m := parseSamples(t, body)
	if v := m.get(t, "comasrv_sims_executed_total"); v != 1 {
		t.Errorf("sims_executed = %g, want 1", v)
	}
	if v := m.get(t, "comasrv_requests_total"); v < 1 {
		t.Errorf("requests = %g, want >= 1", v)
	}
	if v := m.get(t, "comasrv_request_duration_seconds_count"); v < 1 {
		t.Errorf("request_duration count = %g, want >= 1", v)
	}
	// Labeled samples from the aggregated obs counters are present.
	for _, want := range []string{
		`comasrv_obs_events_total{kind="bus-grant"}`,
		`comasrv_obs_bus_occupancy_ns_total{class="read"}`,
		`comasrv_request_duration_seconds_bucket{le="+Inf"}`,
		`comasrv_queue_wait_seconds_bucket{le="+Inf"}`,
		`comasrv_jobs{status="queued"}`,
		"comasrv_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample line's metric has HELP and TYPE headers, and histogram
	// buckets are monotonically non-decreasing (shared linter).
	if err := LintExposition(body); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
	// /metrics is the one metrics surface: the JSON view is gone.
	old, err := c.httpClient().Get(c.Base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	old.Body.Close()
	if old.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/metrics: HTTP %d, want 404", old.StatusCode)
	}
}

// A smoke check that LintExposition actually rejects malformed text.
func TestLintExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no headers": "foo_total 1\n",
		"non-monotonic buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"bad value": "# HELP g x\n# TYPE g gauge\ng notanumber\n",
	}
	for name, body := range cases {
		if err := LintExposition(body); err == nil {
			t.Errorf("%s: lint accepted malformed exposition", name)
		}
	}
	if err := LintExposition(fmt.Sprintf("# HELP g x\n# TYPE g gauge\ng %g\n", 1.5)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}
