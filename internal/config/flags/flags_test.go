package flags

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

type stackErr struct{}

func (stackErr) Error() string      { return "panic: boom" }
func (stackErr) PanicStack() []byte { return []byte("goroutine 7 [running]:\n") }

// Check reports an error recovered from a panic with its stack, then
// the uniform "<cmd>: <err>" line, and exits 1.
func TestCheckPrintsPanicStack(t *testing.T) {
	if os.Getenv("FLAGS_CHECK_HELPER") == "1" {
		Check("cmd", fmt.Errorf("fig2: %w", stackErr{}))
		return
	}
	c := exec.Command(os.Args[0], "-test.run=^TestCheckPrintsPanicStack$")
	c.Env = append(os.Environ(), "FLAGS_CHECK_HELPER=1")
	var stderr bytes.Buffer
	c.Stderr = &stderr
	err := c.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1", err)
	}
	if want := "goroutine 7 [running]:\ncmd: fig2: panic: boom\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
}

// The helpers register on the set they are given: two fresh sets each
// take every shared flag (no redefinition panic, nothing on the default
// set), parse their own arguments, and print the uniform usage to their
// own output on -h.
func TestHelpersRegisterOnGivenSet(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "3", "-v", "-procs", "8", "-cpuprofile", "c.out", "-memprofile", "m.out", "-o", "f.csv"},
		{},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		var out bytes.Buffer
		fs.SetOutput(&out)
		SetUsage(fs, "x", "do x")
		jobs, verbose, procs := Jobs(fs), Verbose(fs), Procs(fs, 16)
		cpu, mem := Profiles(fs)
		o := Output(fs, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(*jobs, *verbose, *procs, *cpu, *mem, *o)
		want := fmt.Sprint(runtime.NumCPU(), false, 16, "", "", "")
		if len(args) > 0 {
			want = fmt.Sprint(3, true, 8, "c.out", "m.out", "f.csv")
		}
		if got != want {
			t.Errorf("parsed %q: got %s, want %s", args, got, want)
		}
		if out.Len() != 0 {
			t.Errorf("parse wrote %q", out.String())
		}
		if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
			t.Fatalf("-h: %v, want flag.ErrHelp", err)
		}
		if u := out.String(); !strings.HasPrefix(u, "usage: x [flags]\ndo x\n\nflags:\n") ||
			!strings.Contains(u, "  -procs int\n    \ttotal processor count (default 16)\n") {
			t.Errorf("usage:\n%s", u)
		}
	}
	for _, name := range []string{"jobs", "v", "procs", "cpuprofile", "o"} {
		if flag.CommandLine.Lookup(name) != nil {
			t.Errorf("-%s registered on the default flag set", name)
		}
	}
}
