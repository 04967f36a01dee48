package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain runs the command itself when EXPERIMENTS_ARGS is set, so a
// test can check what only a process shows: exit status, -h and the
// "<cmd>: <err>" line.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EXPERIMENTS_ARGS"); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs the command in a child process and returns its stderr
// and exit status.
func command(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	c := exec.Command(os.Args[0])
	c.Env = append(os.Environ(), "EXPERIMENTS_ARGS="+strings.Join(args, " "))
	var errb bytes.Buffer
	c.Stderr = &errb
	err := c.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		code = ee.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return errb.String(), code
}

// A failing run still writes the profiles it was asked for.
func TestFailingRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "x.prof"), filepath.Join(dir, "m.prof")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-only", "nosuch", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `unknown artifact "nosuch"`) {
		t.Fatalf("err = %v, want an unknown-artifact error", err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, want a gzip-framed profile", filepath.Base(path), len(b))
		}
	}
}

func TestOnlyThresholdsMatchesRenderArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-only", "thresholds"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.RenderArtifact(&want, experiments.NewRunner(), "thresholds", false); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.String() {
		t.Fatalf("-only thresholds printed\n%s\nwant\n%s", stdout.String(), want.String())
	}
}

// The sampled-fidelity envelope study is gone: its artifact name is
// unknown, and the command names itself once in the error.
func TestFidelityCheckIsUnknown(t *testing.T) {
	stderr, code := command(t, "-only", "fidelitycheck")
	if code != 1 || !strings.HasPrefix(stderr, `experiments: unknown artifact "fidelitycheck"`) {
		t.Fatalf("exit %d, stderr %q: want status 1 and one experiments: prefix", code, stderr)
	}
}

// -h lists the command's flags and no sampled-fidelity flag, and
// -fidelity is undefined.
func TestHelpListsNoFidelityFlags(t *testing.T) {
	usage, code := command(t, "-h")
	if code != 0 || !strings.HasPrefix(usage, "usage: experiments [flags]\n") || !strings.Contains(usage, "\n  -only ") {
		t.Fatalf("-h: exit %d, usage:\n%s", code, usage)
	}
	for _, name := range []string{"-fidelity", "-ff-"} {
		if strings.Contains(usage, name) {
			t.Errorf("-h lists %s:\n%s", name, usage)
		}
	}
	stderr, code := command(t, "-fidelity", "exact")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -fidelity") {
		t.Fatalf("-fidelity exact: exit %d, stderr:\n%s", code, stderr)
	}
}
