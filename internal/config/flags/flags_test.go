package flags

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
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
