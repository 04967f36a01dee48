package experiments

import (
	"strings"
	"testing"
)

// The latency study: fractions form a distribution, and for most
// applications the p99 read latency improves (or holds) under clustering
// — the tail is where remote accesses live.
func TestLatencyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	r := paperRunner()
	rows, err := r.Latency()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 28 {
		t.Fatalf("rows = %d, want 14x2", len(rows))
	}
	p99 := map[string][2]int64{}
	for _, row := range rows {
		sum := row.L1 + row.SLC + row.AM + row.Remote + row.Queued
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s %s: fractions sum to %v", row.App, row.Label, sum)
		}
		v := p99[row.App]
		q := row.P99
		if q < 0 {
			q = 1 << 30
		}
		if row.Label == "1p" {
			v[0] = q
		} else {
			v[1] = q
		}
		p99[row.App] = v
	}
	improved := 0
	for _, v := range p99 {
		if v[1] <= v[0] {
			improved++
		}
	}
	if improved < 10 {
		t.Errorf("p99 improved for only %d/14 applications under clustering", improved)
	}
	var sb strings.Builder
	if err := WriteLatency(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "p99") {
		t.Fatal("rendering broken")
	}
}
