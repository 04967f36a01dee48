package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// Sampled fidelity was removed from the request surface. The fidelity
// field stays: "" and "exact" share one content address, the one exact
// requests had while the mode existed, and every other value, like any
// ff_* geometry field, is a 400.

// The canonical form keeps "fidelity":"exact" and the three zero ff_*
// fields, so an exact request keeps the address it was stored under.
func TestFidelityCanonicalization(t *testing.T) {
	const want = "53b161475b86ed5d4799af6109e06bed130fb437abdf9313b8a8ba3328d18312"
	for _, r := range []SimRequest{
		{App: "fft", Procs: 8, MP: "6%"},
		{App: "fft", Procs: 8, MP: "6%", Fidelity: "exact"},
	} {
		k, err := r.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if got := k.String(); got != want {
			t.Errorf("fidelity %q: key %s, want %s", r.Fidelity, got, want)
		}
	}
}

func TestFidelityBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, tc := range []struct{ body, msg string }{
		{`{"app":"fft","fidelity":"sampled"}`, "sampled fidelity was removed"},
		{`{"app":"fft","fidelity":"fast"}`, "sampled fidelity was removed"},
		{`{"app":"fft","ff_window_ns":5000}`, `unknown field "ff_window_ns"`},
		{`{"app":"fft","fidelity":"exact","ff_period_ns":64000}`, `unknown field "ff_period_ns"`},
	} {
		resp, err := http.Post(c.Base+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.msg) {
			t.Errorf("POST /v1/simulate %s: HTTP %d %q, want 400 naming %q", tc.body, resp.StatusCode, e.Error, tc.msg)
		}
	}
}
