package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
)

// summaryRow returns the one table row run printed for app, minus its
// gen(s) column (wall time, which -load reports as 0).
func summaryRow(t *testing.T, out, app string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[0] == app {
			return strings.Join(f[:8], " ")
		}
	}
	t.Fatalf("no %s row in output:\n%s", app, out)
	return ""
}

// -save writes the compact encoding of a fresh generation, and -load
// of that file summarizes it exactly as generation did.
func TestSaveThenLoad(t *testing.T) {
	dir := t.TempDir()
	var gen, stderr bytes.Buffer
	if err := run([]string{"-app", "fft", "-procs", "8", "-save", dir}, &gen, &stderr); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(filepath.Join(dir, "fft.trace"))
	if err != nil {
		t.Fatal(err)
	}
	fft, err := apps.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, fft.Generate(8).EncodeCompact()) {
		t.Fatal("-save did not write the compact encoding of a fresh generation")
	}

	var loaded bytes.Buffer
	if err := run([]string{"-load", filepath.Join(dir, "fft.trace")}, &loaded, &stderr); err != nil {
		t.Fatal(err)
	}
	if got, want := summaryRow(t, loaded.String(), "fft"), summaryRow(t, gen.String(), "fft"); got != want {
		t.Fatalf("-load row %q, generated row %q", got, want)
	}
}

func TestUnknownAppFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-app", "nosuch"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown application "nosuch"`) {
		t.Fatalf("err = %v, want an unknown-application error", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed %q before failing", stdout.String())
	}
}

// A file in the retired version-1 format fails the decoder's magic check.
func TestLoadRejectsVersion1(t *testing.T) {
	fft, err := apps.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	raw := fft.Generate(4).EncodeCompact()
	copy(raw, trace.CompactMagic[:len(trace.CompactMagic)-1]+"1")
	path := filepath.Join(t.TempDir(), "old.trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	err = run([]string{"-load", path}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v, want a bad-magic error", err)
	}
}
