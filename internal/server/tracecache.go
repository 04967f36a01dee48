//go:build go1.24

package server

import (
	"sync"
	"weak"

	"repro/internal/apps"
	"repro/internal/trace"
)

// traceCache shares generated workload traces across the cold requests
// of one daemon, keyed by (app, procs). An entry holds only a weak
// pointer: a trace is reused for exactly as long as the garbage
// collector keeps it anyway (while a simulation or a runner still
// references it, and until the next collection after that), and is
// generated again once it has been collected. The cache therefore holds
// no memory of its own beyond one small entry per key, and needs no
// size budget. Generation is deterministic, so a reused trace equals a
// regenerated one and every result computed from it is byte-identical.
// The weak package needs Go 1.24; this file's build line says so, since
// go.mod's go line stays lower.
type traceCache struct {
	mu      sync.Mutex
	entries map[genKey]*genEntry
}

type genKey struct {
	app   string
	procs int
}

// genEntry is one key's slot. Its mutex makes concurrent misses on the
// key wait for one generation instead of each running their own.
type genEntry struct {
	mu sync.Mutex
	tr weak.Pointer[trace.Trace]
}

// get returns the workload's trace at procs processors, and whether it
// was reused rather than generated.
func (c *traceCache) get(app string, procs int) (*trace.Trace, bool, error) {
	a, err := apps.ByName(app)
	if err != nil {
		return nil, false, err
	}
	k := genKey{app: app, procs: procs}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[genKey]*genEntry)
	}
	e := c.entries[k]
	if e == nil {
		e = new(genEntry)
		c.entries[k] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if tr := e.tr.Value(); tr != nil {
		return tr, true, nil
	}
	tr := a.Generate(procs)
	e.tr = weak.Make(tr)
	return tr, false, nil
}
