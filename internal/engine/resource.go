package engine

import (
	"fmt"
	"strings"
)

// Time is a simulation timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
)

// String formats the time as nanoseconds with a unit suffix.
func (t Time) String() string { return fmt.Sprintf("%dns", int64(t)) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// waitBounds are the wait-histogram bucket upper bounds (inclusive, ns):
// zero-wait claims first, then doublings spanning one bus phase up to deep
// queueing. The final bucket of WaitHist is the unbounded overflow.
var waitBounds = [...]Time{0, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120}

// WaitHist is a histogram of per-claim queueing delays (time between a
// request's arrival and its service start).
type WaitHist struct {
	Counts [len(waitBounds) + 1]int64
}

func (h *WaitHist) add(w Time) {
	// Ranging over the array itself would copy it on every call.
	for i, b := range waitBounds[:] {
		if w <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(waitBounds)]++
}

// WaitBuckets returns the bucket upper bounds in nanoseconds (the final
// overflow bucket is unbounded).
func WaitBuckets() []int64 {
	out := make([]int64, len(waitBounds))
	for i, b := range waitBounds {
		out[i] = int64(b)
	}
	return out
}

// Total returns the number of recorded claims.
func (h *WaitHist) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// String renders the non-empty buckets compactly, e.g.
// "0ns:90.0% <=40ns:10.0%".
func (h *WaitHist) String() string {
	total := h.Total()
	if total == 0 {
		return "no claims"
	}
	var sb strings.Builder
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		label := "<=inf"
		switch {
		case i == 0:
			label = "0ns"
		case i < len(waitBounds):
			label = fmt.Sprintf("<=%dns", int64(waitBounds[i]))
		}
		fmt.Fprintf(&sb, "%s:%.1f%% ", label, 100*float64(c)/float64(total))
	}
	return strings.TrimSpace(sb.String())
}

// Resource models a unit-capacity, FCFS-served hardware resource such as a
// DRAM bank, a node controller or a shared bus. A request arriving at time
// t begins service at max(t, freeAt) and occupies the resource for its
// occupancy period. Latency seen by the requester may exceed occupancy
// (pipelined resources free up before the reply reaches the requester).
type Resource struct {
	name   string
	freeAt Time
	// busyTotal accumulates occupied time, for utilization reporting.
	busyTotal Time
	claims    int64
	// waitTotal and waits profile queueing delay: how long claims sat
	// behind earlier work before starting service.
	waitTotal Time
	waits     WaitHist
}

// NewResource returns an idle resource with the given diagnostic name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Claim occupies the resource for occ starting no earlier than at, and
// returns the service start time. The caller's completion time is
// typically start plus a latency that is at least occ.
func (r *Resource) Claim(at, occ Time) (start Time) {
	if occ < 0 {
		panic("engine: negative occupancy")
	}
	start = Max(at, r.freeAt)
	r.freeAt = start + occ
	r.busyTotal += occ
	r.claims++
	r.waitTotal += start - at
	r.waits.add(start - at)
	return start
}

// Probe reports when a request arriving at time at would start service,
// without claiming the resource.
func (r *Resource) Probe(at Time) Time { return Max(at, r.freeAt) }

// FreeAt reports the time the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTotal reports total occupied time since construction or Reset.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Claims reports the number of Claim calls since construction or Reset.
func (r *Resource) Claims() int64 { return r.claims }

// WaitTotal reports total queueing delay since construction or Reset.
func (r *Resource) WaitTotal() Time { return r.waitTotal }

// Waits returns the queueing-delay histogram since construction or Reset.
func (r *Resource) Waits() WaitHist { return r.waits }

// Reset clears utilization counters but leaves the schedule (freeAt)
// intact, so statistics can be restricted to a measured region.
func (r *Resource) Reset() {
	r.busyTotal = 0
	r.claims = 0
	r.waitTotal = 0
	r.waits = WaitHist{}
}
