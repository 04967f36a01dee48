package flags

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// SetUsage installs a uniform usage printer on fs: a one-line synopsis
// followed by the flag defaults. Every command calls it before parsing so
// `-h` output has the same shape everywhere.
func SetUsage(fs *flag.FlagSet, cmd, synopsis string) {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [flags]\n%s\n\nflags:\n", cmd, synopsis)
		fs.PrintDefaults()
	}
}

// Check exits with the uniform error format "<cmd>: <err>" and status 1
// when err is non-nil. An error recovered from a panic
// (experiments.PanicError) first prints the panicking goroutine's stack.
func Check(cmd string, err error) {
	if err != nil {
		var p interface{ PanicStack() []byte }
		if errors.As(err, &p) {
			os.Stderr.Write(p.PanicStack())
		}
		Fatalf(cmd, "%v", err)
	}
}

// Fatalf prints "<cmd>: <message>" to stderr and exits with status 1.
func Fatalf(cmd, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", cmd, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// Jobs registers the shared -jobs flag on fs: the worker-pool width for
// simulation run matrices. Output is byte-identical for any value.
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("jobs", runtime.NumCPU(), "max concurrent simulations (output is identical for any value)")
}

// Verbose registers the shared -v flag on fs.
func Verbose(fs *flag.FlagSet) *bool {
	return fs.Bool("v", false, "print per-run progress to stderr")
}

// Procs registers the shared -procs flag on fs with the given default
// (the paper's machine is 16 processors).
func Procs(fs *flag.FlagSet, def int) *int {
	return fs.Int("procs", def, "total processor count")
}

// Profiles registers the shared -cpuprofile and -memprofile flags on fs,
// consumed by profiling.Start.
func Profiles(fs *flag.FlagSet) (cpuprofile, memprofile *string) {
	cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return cpuprofile, memprofile
}

// Output registers the shared -o output-file flag on fs; an empty
// default means stdout.
func Output(fs *flag.FlagSet, def string) *string {
	usage := "output file"
	if def == "" {
		usage += " (default: stdout)"
	}
	return fs.String("o", def, usage)
}
