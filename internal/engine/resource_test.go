package engine

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestResourceIdle(t *testing.T) {
	r := NewResource("dram")
	if got := r.Claim(100, 50); got != 100 {
		t.Fatalf("idle claim started at %v, want 100", got)
	}
	if r.FreeAt() != 150 {
		t.Fatalf("FreeAt = %v, want 150", r.FreeAt())
	}
}

func TestResourceQueueing(t *testing.T) {
	r := NewResource("bus")
	r.Claim(0, 20)
	// Arrives while busy: queued until 20.
	if got := r.Claim(5, 20); got != 20 {
		t.Fatalf("queued claim started at %v, want 20", got)
	}
	// Arrives after idle: starts immediately.
	if got := r.Claim(100, 20); got != 100 {
		t.Fatalf("late claim started at %v, want 100", got)
	}
	if r.BusyTotal() != 60 {
		t.Fatalf("BusyTotal = %v, want 60", r.BusyTotal())
	}
	if r.Claims() != 3 {
		t.Fatalf("Claims = %v, want 3", r.Claims())
	}
}

func TestResourceWaitStats(t *testing.T) {
	r := NewResource("bus")
	r.Claim(0, 20)  // idle: wait 0
	r.Claim(5, 20)  // queued behind the first: wait 15
	r.Claim(10, 20) // queued behind both: wait 30
	if r.WaitTotal() != 45 {
		t.Fatalf("WaitTotal = %v, want 45", r.WaitTotal())
	}
	h := r.Waits()
	if h.Total() != 3 {
		t.Fatalf("hist total = %d, want 3", h.Total())
	}
	// Buckets: 0 -> bucket 0; 15 -> <=20; 30 -> <=40.
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("hist = %v", h.Counts)
	}
}

func TestWaitHistOverflowAndString(t *testing.T) {
	r := NewResource("dram")
	r.Claim(0, 10000)
	r.Claim(0, 10) // waits 10000ns: overflow bucket
	h := r.Waits()
	if h.Counts[len(h.Counts)-1] != 1 {
		t.Fatalf("overflow not counted: %v", h.Counts)
	}
	s := h.String()
	if !strings.Contains(s, "0ns:50.0%") || !strings.Contains(s, "<=inf:50.0%") {
		t.Fatalf("String = %q", s)
	}
	var empty WaitHist
	if empty.String() != "no claims" {
		t.Fatalf("empty String = %q", empty.String())
	}
	if len(WaitBuckets()) != len(h.Counts)-1 {
		t.Fatal("WaitBuckets/Counts length mismatch")
	}
}

func TestResourceProbe(t *testing.T) {
	r := NewResource("nc")
	r.Claim(0, 24)
	if got := r.Probe(10); got != 24 {
		t.Fatalf("Probe(10) = %v, want 24", got)
	}
	if r.FreeAt() != 24 {
		t.Fatal("Probe must not claim")
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Claim(0, 100)
	r.Claim(0, 50)
	r.Reset()
	if r.BusyTotal() != 0 || r.Claims() != 0 {
		t.Fatal("Reset must clear counters")
	}
	h := r.Waits()
	if r.WaitTotal() != 0 || h.Total() != 0 {
		t.Fatal("Reset must clear wait stats")
	}
	if r.FreeAt() != 150 {
		t.Fatal("Reset must not clear the schedule")
	}
}

func TestResourceNegativeOccupancyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative occupancy")
		}
	}()
	NewResource("x").Claim(0, -1)
}

// Property: service start is never before arrival nor before the previous
// request's completion, and busy time accumulates exactly.
func TestResourceFCFSProperty(t *testing.T) {
	prop := func(arrivalDeltas []uint16, occs []uint16) bool {
		r := NewResource("p")
		var at, prevEnd, busy Time
		n := len(arrivalDeltas)
		if len(occs) < n {
			n = len(occs)
		}
		for i := 0; i < n; i++ {
			at += Time(arrivalDeltas[i])
			occ := Time(occs[i] % 500)
			start := r.Claim(at, occ)
			if start < at || start < prevEnd {
				return false
			}
			prevEnd = start + occ
			busy += occ
		}
		return r.BusyTotal() == busy
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(5, 3) != 5 || Max(-1, -2) != -1 {
		t.Fatal("Max broken")
	}
}

func TestTimeString(t *testing.T) {
	if Time(42).String() != "42ns" {
		t.Fatalf("got %q", Time(42).String())
	}
}

var histSink WaitHist

// BenchmarkWaitHistAdd times one bucket update, which every Claim pays.
func BenchmarkWaitHistAdd(b *testing.B) {
	var h WaitHist
	for i := 0; i < b.N; i++ {
		h.add(Time(i & 63))
	}
	histSink = h
}
