package obs

import (
	"strings"
	"testing"
)

func TestDisabledRecorderDropsAndNeverAllocates(t *testing.T) {
	var rec Recorder // zero value: disabled
	if rec.Enabled() {
		t.Fatal("zero Recorder must be disabled")
	}
	allocs := loopAllocs(func() {
		for i := 0; i < 1000; i++ {
			rec.Emit(Event{Kind: KindBusGrant, At: 42, Node: 1, Dur: 20})
			rec.Emit(Event{Kind: KindTransition, From: 3, To: 2, Line: 7})
			rec.Emit(Event{Kind: KindWBStall, Node: 5, Dur: 100})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocated %.0f objects in 1000 rounds, want 0", allocs)
	}
}

func TestCountingSinkZeroAllocEmit(t *testing.T) {
	rec := NewRecorder(&Counting{})
	allocs := loopAllocs(func() {
		for i := 0; i < 1000; i++ {
			rec.Emit(Event{Kind: KindBusGrant, Class: 1, Dur: 20})
			rec.Emit(Event{Kind: KindTransition, From: 0, To: 3})
		}
	})
	if allocs != 0 {
		t.Fatalf("counting Emit allocated %.0f objects in 1000 rounds, want 0", allocs)
	}
}

func TestCountingSink(t *testing.T) {
	var c Counting
	c.Emit(Event{Kind: KindBusGrant, Class: 0, Dur: 20})
	c.Emit(Event{Kind: KindBusGrant, Class: 2, Dur: 40})
	c.Emit(Event{Kind: KindTransition, From: 0, To: 3})
	c.Emit(Event{Kind: KindTransition, From: 3, To: 2})
	c.Emit(Event{Kind: KindWBStall, Dur: 100})
	c.Emit(Event{Kind: KindSyncArrive, Class: SyncBarrier})
	if c.Total() != 6 {
		t.Fatalf("Total = %d, want 6", c.Total())
	}
	if c.Kinds[KindBusGrant] != 2 || c.Kinds[KindTransition] != 2 {
		t.Fatalf("kind counts wrong: %v", c.Kinds)
	}
	if c.Transitions[0][3] != 1 || c.Transitions[3][2] != 1 || c.TransitionTotal() != 2 {
		t.Fatalf("transition matrix wrong: %v", c.Transitions)
	}
	if c.BusOccNs[0] != 20 || c.BusOccNs[2] != 40 {
		t.Fatalf("bus occupancy wrong: %v", c.BusOccNs)
	}
	if c.WBStallNs != 100 {
		t.Fatalf("WBStallNs = %d", c.WBStallNs)
	}
}

func TestRingKeepsTail(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{At: int64(i)})
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d", r.Total())
	}
	ev := r.Events()
	if len(ev) != 3 || ev[0].At != 2 || ev[2].At != 4 {
		t.Fatalf("Events = %+v, want At 2..4 oldest-first", ev)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{At: 1})
	r.Emit(Event{At: 2})
	ev := r.Events()
	if len(ev) != 2 || ev[0].At != 1 || ev[1].At != 2 {
		t.Fatalf("Events = %+v", ev)
	}
}

func TestJSONLFormat(t *testing.T) {
	var sb strings.Builder
	j := NewJSONL(&sb)
	j.Emit(Event{Kind: KindBusGrant, At: 100, Node: 2, Peer: -1, Class: 1, Dur: 20})
	j.Emit(Event{Kind: KindTransition, At: 120, Node: 0, Line: 9, From: 1, To: 0})
	if j.Err() != nil {
		t.Fatal(j.Err())
	}
	want := `{"kind":"bus-grant","at":100,"node":2,"peer":-1,"line":0,"from":0,"to":0,"class":1,"dur":20}` + "\n" +
		`{"kind":"transition","at":120,"node":0,"peer":0,"line":9,"from":1,"to":0,"class":0,"dur":0}` + "\n"
	if sb.String() != want {
		t.Fatalf("got:\n%swant:\n%s", sb.String(), want)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

func TestJSONLStickyError(t *testing.T) {
	w := &failWriter{}
	j := NewJSONL(w)
	j.Emit(Event{})
	j.Emit(Event{})
	if j.Err() == nil {
		t.Fatal("expected error")
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times after error, want 1", w.n)
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b Counting
	s := Tee{&a, &b}
	s.Emit(Event{Kind: KindBusGrant})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatal("tee did not fan out")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindBusGrant:    "bus-grant",
		KindTransition:  "transition",
		KindReplacement: "replacement",
		KindWBStall:     "wb-stall",
		KindSyncArrive:  "sync-arrive",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind: %q", Kind(99).String())
	}
}

// loopAllocs counts heap allocations over whole runs of loop and returns
// the fewest of up to three runs. One run per step would let
// testing.AllocsPerRun's integer division read 0 for a path that
// allocates on most steps but not all. A rare allocation by the runtime
// itself, seen under CPU contention, can land in one run but not in
// all three, while an allocation on the measured path lands in every run.
func loopAllocs(loop func()) float64 {
	n := testing.AllocsPerRun(1, loop)
	for i := 1; i < 3 && n > 0; i++ {
		n = min(n, testing.AllocsPerRun(1, loop))
	}
	return n
}
