// Package repro is a reproduction of "A Study of the Efficiency of Shared
// Attraction Memories in Cluster-Based COMA Multiprocessors" (Landin &
// Karlgren, IPPS 1997): a program-driven simulator for 16-processor
// bus-based COMA machines with 1, 2 or 4 processors per node sharing an
// attraction memory, driven by fourteen SPLASH-2-style workload kernels.
//
// The entry point is experiments.Runner (repro/internal/experiments): it
// generates workload traces, builds and runs the machine for each
// configuration, and regenerates every table and figure of the paper's
// evaluation. The benchmarks in bench_test.go drive it per artifact, and
// claims_test.go checks the paper's qualitative claims end to end (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
package repro
