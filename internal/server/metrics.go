package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// counters is the server's internal mutable state behind the /metrics
// exposition (see renderProm).
type counters struct {
	requests         atomic.Int64
	badRequests      atomic.Int64
	simsExecuted     atomic.Int64
	flightsExecuted  atomic.Int64
	flightsCollapsed atomic.Int64
	cacheHits        atomic.Int64
	cacheBypassed    atomic.Int64
	jobsCreated      atomic.Int64
	jobsCancelled    atomic.Int64
	jobsEvicted      atomic.Int64
	activeFlights    atomic.Int64
	simulatedExecNs  atomic.Int64
	simulatedRuns    atomic.Int64
	loadShed         atomic.Int64
	tracesUploaded   atomic.Int64
	tracesDeleted    atomic.Int64
	traceSims        atomic.Int64

	peerFillHits        atomic.Int64
	peerFillMisses      atomic.Int64
	peerFillErrors      atomic.Int64
	peerServed          atomic.Int64
	peerServedMisses    atomic.Int64
	replicationPushed   atomic.Int64
	replicationReceived atomic.Int64
	replicationErrors   atomic.Int64
}

// lockedCounting is a concurrency-safe obs sink shared by every machine
// the daemon builds: distinct machines emit from distinct goroutines, so
// the per-event mutex buys global aggregation at a small, service-only
// cost (CLI runs stay un-instrumented).
type lockedCounting struct {
	mu sync.Mutex
	c  obs.Counting
}

// Emit implements obs.Sink.
func (l *lockedCounting) Emit(e obs.Event) {
	l.mu.Lock()
	l.c.Emit(e)
	l.mu.Unlock()
}

// snapshot returns a copy of the aggregate counters.
func (l *lockedCounting) snapshot() obs.Counting {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}
