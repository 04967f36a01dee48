// Package flags centralizes the flag-parsing boilerplate shared by every
// command under cmd/: constructors for the common flags (-jobs, -v,
// -procs, -o, -cpuprofile/-memprofile) with a single help text each, a
// uniform usage printer, and the uniform "<cmd>: <error>" fatal-exit
// helpers. The constructors and the usage printer take the
// *flag.FlagSet to register on: flag.CommandLine for a main that parses
// os.Args, or a command's own set for a testable run(args, ...).
// Commands register their command-specific flags with the standard
// library flag package as usual; this package only removes the drift
// between the eight-plus copies of the shared ones (the catalogue lives
// in API.md's CLI appendix).
package flags
