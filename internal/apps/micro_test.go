package apps

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestMicroDispatch(t *testing.T) {
	for _, name := range MicroNames() {
		tr := Micro(name, 8, 16, 2)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := tr.Summarize()
		if s.Reads == 0 && s.Writes == 0 {
			t.Fatalf("%s: empty trace", name)
		}
	}
}

// TestGenerateUnknownNameListsMicro: Generate accepts the micro-* names,
// so its unknown-name error lists them beside the registry's.
func TestGenerateUnknownNameListsMicro(t *testing.T) {
	_, err := Generate("nosuch", 8)
	if err == nil {
		t.Fatal("Generate accepted an unknown name")
	}
	for _, want := range []string{`unknown application "nosuch"`, "fft", "micro-producer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestMicroUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Micro("micro-nope", 8, 16, 2)
}

// The private workload has no cross-processor sharing in its measured
// section; read-shared has everything shared.
func TestMicroSharingExtremes(t *testing.T) {
	priv := MicroPrivate(8, 16, 2).Summarize()
	if priv.SharedLines != 0 {
		t.Fatalf("private workload shares %d lines", priv.SharedLines)
	}
	shared := MicroReadShared(8, 16, 2).Summarize()
	if shared.SharedLines < 16 {
		t.Fatalf("read-shared workload shares only %d lines", shared.SharedLines)
	}
}

// Migratory: every round the record's writer changes, so each processor
// both reads and writes every record line.
func TestMicroMigratoryBouncing(t *testing.T) {
	tr := MicroMigratory(4, 8, 1)
	for p := 0; p < 4; p++ {
		reads, writes := 0, 0
		seen := false
		for _, r := range tr.Streams[p].Refs() {
			if r.Kind == trace.MeasureStart {
				seen = true
			}
			if !seen {
				continue
			}
			switch r.Kind {
			case trace.Read:
				reads++
			case trace.Write:
				writes++
			}
		}
		if reads < 8*8 || writes < 8*8 {
			t.Fatalf("proc %d: %d reads / %d writes, want full record sweeps", p, reads, writes)
		}
	}
}
