package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares a small host with other machines' work, which can
// slow every CPU by half for minutes at a time with no steal time to show
// for it. Between its measured phases a run therefore times a fixed
// amount of work of its own (the probe), whose code never changes with
// the repository's, and states CPU-bound figures in reference-host time:
// a duration is divided by the host scale, a rate multiplied by it, where
// the scale is a probe time over probeRefMs — the nearest probe's where
// each measured interval has its own, else the run's median. The probe
// times and the wall-clock figures are in the provenance line.
//
// probeRefMs is the probe's median on a 2-vCPU Intel Xeon host at
// GOMAXPROCS 2 while it ran nothing else.
const probeRefMs = 60.0

// probeWords is the size of each worker's probe table: 8 MiB, past the
// caches, as the simulator's working sets are.
const probeWords = 1 << 20

// hostSpeed runs the probes of one run and keeps their times.
type hostSpeed struct {
	// probeMs holds each probe's wall time in ms.
	probeMs []float64
	// tables are the per-worker probe tables, mapped outside the Go heap
	// so the probe moves neither live_heap_mb_p95 nor the collector's
	// pacing; maps are the same memory as mapped.
	tables [][]uint64
	maps   [][]byte
}

// newHostSpeed maps a probe table for each worker and touches every page,
// so no probe times the first faults.
func newHostSpeed(workers int) (*hostSpeed, error) {
	h := &hostSpeed{}
	for w := 0; w < workers; w++ {
		b, err := syscall.Mmap(-1, 0, probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, err
		}
		h.maps = append(h.maps, b)
		t := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), probeWords)
		clear(t)
		h.tables = append(h.tables, t)
	}
	return h, nil
}

// close unmaps the probe tables.
func (h *hostSpeed) close() {
	for _, b := range h.maps {
		syscall.Munmap(b)
	}
	h.tables, h.maps = nil, nil
}

// probe times, on every worker at once, a fill of its table and random
// reads and writes over it: integer work on a working set past the
// caches, as the simulator's is. It returns the host scale by this probe
// alone.
func (h *hostSpeed) probe() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w, t := range h.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range t {
				t[i] = uint64(i)*0x9E3779B97F4A7C15 + uint64(w)
			}
			x := uint64(w)
			for i := 0; i < 1<<19; i++ {
				j := (x >> 11) & (probeWords - 1)
				x = t[j]*0x2545F4914F6CDD1D + uint64(i)
				t[j] = x
			}
		}()
	}
	wg.Wait()
	d := ms(time.Since(t0))
	h.probeMs = append(h.probeMs, d)
	return d / probeRefMs
}

// scale is how much slower than the reference host this run's host was,
// by the probe's median: 1 on the reference host, 1.5 when the probe took
// half as long again.
func (h *hostSpeed) scale() float64 { return median(h.probeMs) / probeRefMs }

// report records the probe times and the run's scale in the provenance.
func (h *hostSpeed) report(r *run) {
	r.info["probe_ms"] = h.probeMs
	r.info["host_scale"] = h.scale()
}
