package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one simulation cell) share a trace ID; Parent links a span to the
// one that caused it. Times are nanoseconds since the run started.
type span struct {
	Workload string            `json:"workload"`
	Trace    string            `json:"trace"`
	ID       string            `json:"id"`
	Parent   string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Layer    string            `json:"layer"`
	StartNs  int64             `json:"start_ns"`
	EndNs    int64             `json:"end_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps a run's spans in memory until the run ends. A recorder
// that is off drops everything, so untraced runs pay one branch.
type recorder struct {
	workload string
	on       bool
	base     time.Time

	mu    sync.Mutex
	spans []span
	seq   int64
}

func newRecorder(workload string, on bool) *recorder {
	return &recorder{workload: workload, on: on, base: time.Now()}
}

// nextID returns a fresh span ID.
func (r *recorder) nextID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return fmt.Sprintf("b%d", r.seq)
}

// add records a finished span and returns its ID.
func (r *recorder) add(trace, parent, name string, start, end time.Time, attrs map[string]string) string {
	if !r.on {
		return ""
	}
	id := r.nextID()
	r.addID(id, trace, parent, name, start, end, attrs)
	return id
}

// addID records a finished span under an ID taken from nextID earlier,
// so children that finish first can name it as their parent.
func (r *recorder) addID(id, trace, parent, name string, start, end time.Time, attrs map[string]string) {
	r.addSpan(span{Trace: trace, ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(r.base).Nanoseconds(), EndNs: end.Sub(r.base).Nanoseconds(), Attrs: attrs})
}

// addSpan records a span built elsewhere (daemon spans fetched over HTTP).
func (r *recorder) addSpan(s span) {
	if !r.on {
		return
	}
	s.Workload = r.workload
	s.Layer = layerOf(s.Name)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// layerOf maps a span name to the repository module it times.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "GET /v1/fleet/entries"), name == "peer.fill":
		return "fleet"
	case strings.HasPrefix(name, "GET /v1/fleet/metrics"), strings.HasPrefix(name, "GET /metrics"):
		return "obs"
	case strings.HasPrefix(name, "POST "), strings.HasPrefix(name, "GET "), name == "canonicalize", name == "queue.wait":
		return "server"
	case name == "store.lookup":
		return "store"
	case name == "simulate", name == "fidelity.phases":
		return "machine"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span ID.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		covered, cur := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, cur), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// selfByName groups span self times by span name.
func (r *recorder) selfByName() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}

// writeSelfTimes prints the per-layer self-time table.
func (r *recorder) writeSelfTimes(w io.Writer) {
	r.mu.Lock()
	self := selfTimes(r.spans)
	type row struct {
		spans       int
		total, self time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for _, s := range r.spans {
		rw := rows[s.Layer]
		if rw == nil {
			rw = &row{}
			rows[s.Layer] = rw
		}
		rw.spans++
		rw.total += s.dur()
		rw.self += self[s.ID]
		all += self[s.ID]
	}
	r.mu.Unlock()
	fmt.Fprintf(w, "%-12s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, name := range sortedKeys(rows) {
		rw := rows[name]
		share := 0.0
		if all > 0 {
			share = 100 * float64(rw.self) / float64(all)
		}
		fmt.Fprintf(w, "%-12s %8d %12.1f %12.1f %6.1f%%\n", name, rw.spans, ms(rw.total), ms(rw.self), share)
	}
}

// writeJSONL writes the provenance line and then one span per line.
func (r *recorder) writeJSONL(dir, workload string, seed int64, prov map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]any{"provenance": prov})
	r.mu.Lock()
	for _, s := range r.spans {
		enc.Encode(s)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
