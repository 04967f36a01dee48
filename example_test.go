package repro_test

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/experiments"
)

// The basic API flow: run one workload on the paper's 16-processor machine
// without and with clustering, then inspect the results. Results are
// deterministic, so the qualitative facts below are stable.
func Example() {
	r := experiments.NewRunner()
	res1, err := r.Run("fft", config.Baseline(1, config.MP6))
	if err != nil {
		panic(err)
	}
	res4, err := r.Run("fft", config.Baseline(4, config.MP6))
	if err != nil {
		panic(err)
	}
	fmt.Println("clustering reduces node misses:", res4.ReadNodeMisses < res1.ReadNodeMisses)
	fmt.Println("clustering reduces bus traffic:", res4.BusTotal() < res1.BusTotal())
	fmt.Println("no replacements at 6% memory pressure:", res1.Protocol.Injects == 0)
	// Output:
	// clustering reduces node misses: true
	// clustering reduces bus traffic: true
	// no replacements at 6% memory pressure: true
}
