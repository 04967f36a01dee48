package trace_test

import (
	"fmt"

	"repro/internal/trace"
)

// ExampleStream shows the compact reference-stream encoding: common
// records (reads, writes, compute) pack into one 32-bit word each, while
// multi-field records like Acquire spill to a side table — At always
// reconstructs the original Ref.
func ExampleStream() {
	var s trace.Stream
	s.Append(trace.Ref{Kind: trace.Read, Addr: 64})
	s.Append(trace.Ref{Kind: trace.Compute, Dur: 100})
	s.Append(trace.Ref{Kind: trace.Acquire, Addr: 4096, ID: 3})

	fmt.Println("records:", s.Len())
	fmt.Println(s.Kind(0), "of address", s.At(0).Addr)
	fmt.Println(s.Kind(1), "for", s.At(1).Dur)
	fmt.Println(s.Kind(2), "of lock", s.At(2).ID, "via address", s.At(2).Addr)
	// Output:
	// records: 3
	// read of address 64
	// compute for 100ns
	// acquire of lock 3 via address 4096
}
