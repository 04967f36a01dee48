package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/coma"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/obs/tsdb"
	"repro/internal/server/store"
	"repro/internal/trace"
)

// Config parameterizes the daemon.
type Config struct {
	// Jobs is the simulation-slot pool size shared by every request
	// (0 = runtime.NumCPU()). A single-run request takes one slot, a
	// study takes the whole pool, so at most Jobs simulations execute
	// concurrently machine-wide.
	Jobs int
	// StoreDir roots the persistent result store; empty runs
	// memory-only.
	StoreDir string
	// StoreMemBytes is the in-memory LRU budget (0 = store.DefaultMemBytes).
	StoreMemBytes int64
	// Timeout bounds each request's simulation time (0 = unbounded).
	Timeout time.Duration
	// Logger receives the structured per-request log (trace ID, route,
	// status, duration). nil discards; cmd/comasrv wires one from its
	// -log flag.
	Logger *slog.Logger
	// MaxQueue is the admission-control bound on the simulation pool's
	// waiter queue: a computation that cannot start while MaxQueue
	// acquisitions are already waiting is shed with a fast 429 +
	// Retry-After instead of queueing. 0 = unbounded (the pre-fleet
	// behavior).
	MaxQueue int
	// Fleet, when non-nil, runs this daemon as one shard of a
	// consistent-hash fleet (see FleetConfig).
	Fleet *FleetConfig
	// JobTTL bounds how long finished async jobs stay queryable before
	// the background sweeper evicts them (0 = 15 minutes).
	JobTTL time.Duration
	// MaxTraceBytes bounds one POST /v1/traces payload
	// (0 = DefaultMaxTraceBytes); larger uploads answer 413.
	MaxTraceBytes int64
	// MaxTraces bounds the uploaded-trace index (0 = DefaultMaxTraces);
	// uploads past the bound answer 507 until one is deleted.
	MaxTraces int
	// ScrapeInterval is the self-scrape period feeding the metrics
	// history store and the live stream (0 = DefaultScrapeInterval;
	// negative disables the loop — tests drive scrapes manually).
	ScrapeInterval time.Duration
	// SlowThreshold, when positive, logs every request at least this
	// slow at warn level (the request stays in /v1/debug/slow either
	// way — the ring keeps the slowest regardless of threshold).
	SlowThreshold time.Duration
	// SlowKeep is how many slow-request exemplars /v1/debug/slow
	// retains (0 = DefaultSlowKeep).
	SlowKeep int
}

// Server is the comasrv HTTP API: the experiment engine behind
// content-addressed caching, request collapsing and a bounded simulation
// pool. Create with New, serve with the embedded handler, stop with
// Close.
type Server struct {
	cfg   Config
	store *store.Store
	mux   *http.ServeMux
	pool  *weighted

	baseCtx context.Context
	stop    context.CancelFunc

	flightsMu sync.Mutex
	flights   map[flightKey]*flight

	jobsMu   sync.Mutex
	jobs     map[string]*job
	jobOrder []string
	jobSeq   int
	// now is the job-eviction clock, injectable by the TTL tests.
	now func() time.Time

	tracesMu sync.Mutex
	traceIdx map[string]TraceMeta

	// generated shares registry workload traces across cold requests
	// for as long as the garbage collector keeps them.
	generated traceCache

	counters counters
	obsSink  *lockedCounting
	fleet    *fleetState

	logger  *slog.Logger
	tracer  *tracing.Tracer
	started time.Time

	reqDur    *histogram
	queueWait *histogram

	// history retains the self-scraped metric series (GET
	// /v1/metrics/history); stream fans scrapes out to SSE subscribers;
	// slow keeps the slowest-request exemplars (GET /v1/debug/slow).
	history *tsdb.DB
	stream  streamBroker
	slow    *slowRing
}

// flightKey separates cacheable flights from forced (?nocache=1) ones:
// a forced recompute must not satisfy waiters who asked for the cached
// path's semantics, and vice versa.
type flightKey struct {
	key     store.Key
	nocache bool
}

// flight is one in-progress computation that concurrent identical
// requests attach to instead of simulating again.
type flight struct {
	done chan struct{}
	body []byte
	src  source
	err  error
}

// source says where a response body came from. In fleet mode it is
// surfaced to clients (SimEnvelope.Source, X-Comasrv-Source) so the
// load generator can attribute every hit.
type source string

const (
	srcLocal   source = "local"   // this shard's store
	srcPeer    source = "peer"    // filled from the owner shard's store
	srcCompute source = "compute" // simulated here
)

// New opens the store and builds the handler. Callers own the listener;
// Server implements http.Handler.
func New(cfg Config) (*Server, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.NumCPU()
	}
	st, err := store.Open(cfg.StoreDir, cfg.StoreMemBytes)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:       cfg,
		store:     st,
		pool:      newWeighted(int64(cfg.Jobs)),
		baseCtx:   ctx,
		stop:      cancel,
		flights:   make(map[flightKey]*flight),
		jobs:      make(map[string]*job),
		traceIdx:  make(map[string]TraceMeta),
		obsSink:   &lockedCounting{},
		logger:    logger,
		tracer:    tracing.NewTracer(0),
		started:   time.Now(),
		reqDur:    newHistogram(durationBuckets...),
		queueWait: newHistogram(durationBuckets...),
		slow:      newSlowRing(cfg.SlowKeep),
		now:       time.Now,
	}
	s.history, err = tsdb.New(historyTiers(cfg.ScrapeInterval))
	if err != nil {
		cancel()
		return nil, err
	}
	if cfg.Fleet != nil {
		s.fleet, err = newFleet(*cfg.Fleet)
		if err != nil {
			cancel()
			return nil, err
		}
		if s.fleet.cfg.ProbeInterval > 0 {
			go s.probePeers()
		}
	}
	go s.sweepJobs()
	if cfg.ScrapeInterval >= 0 {
		interval := cfg.ScrapeInterval
		if interval == 0 {
			interval = DefaultScrapeInterval
		}
		go s.scrapeLoop(interval)
	}
	s.mux = http.NewServeMux()
	for _, r := range Routes() {
		switch r {
		case "GET /v1/healthz":
			s.mux.HandleFunc(r, s.handleHealthz)
		case "GET /v1/workloads":
			s.mux.HandleFunc(r, s.handleWorkloads)
		case "POST /v1/simulate":
			s.mux.HandleFunc(r, s.handleSimulate)
		case "POST /v1/studies/{study}":
			s.mux.HandleFunc(r, s.handleStudy)
		case "GET /v1/jobs/{id}":
			s.mux.HandleFunc(r, s.handleJob)
		case "GET /v1/jobs/{id}/result":
			s.mux.HandleFunc(r, s.handleJobResult)
		case "DELETE /v1/jobs/{id}":
			s.mux.HandleFunc(r, s.handleJobCancel)
		case "GET /v1/traces/{id}":
			s.mux.HandleFunc(r, s.handleTrace)
		case "POST /v1/traces":
			s.mux.HandleFunc(r, s.handleTraceUpload)
		case "GET /v1/traces":
			s.mux.HandleFunc(r, s.handleTraceList)
		case "DELETE /v1/traces/{id}":
			s.mux.HandleFunc(r, s.handleTraceDelete)
		case "GET /v1/fleet":
			s.mux.HandleFunc(r, s.handleFleetInfo)
		case "GET /v1/fleet/entries/{key}":
			s.mux.HandleFunc(r, s.handleFleetEntryGet)
		case "PUT /v1/fleet/entries/{key}":
			s.mux.HandleFunc(r, s.handleFleetEntryPut)
		case "GET /metrics":
			s.mux.HandleFunc(r, s.handlePromMetrics)
		case "GET /v1/metrics/history":
			s.mux.HandleFunc(r, s.handleMetricsHistory)
		case "GET /v1/metrics/stream":
			s.mux.HandleFunc(r, s.handleMetricsStream)
		case "GET /v1/fleet/metrics":
			s.mux.HandleFunc(r, s.handleFleetMetrics)
		case "GET /v1/debug/slow":
			s.mux.HandleFunc(r, s.handleDebugSlow)
		default:
			panic("server: unhandled route " + r)
		}
	}
	return s, nil
}

// Routes lists every endpoint as "METHOD /pattern". The docs test checks
// API.md documents each one; New panics if a route here has no handler.
func Routes() []string {
	return []string{
		"GET /v1/healthz",
		"GET /v1/workloads",
		"POST /v1/simulate",
		"POST /v1/studies/{study}",
		"GET /v1/jobs/{id}",
		"GET /v1/jobs/{id}/result",
		"DELETE /v1/jobs/{id}",
		"GET /v1/traces/{id}",
		"POST /v1/traces",
		"GET /v1/traces",
		"DELETE /v1/traces/{id}",
		"GET /v1/fleet",
		"GET /v1/fleet/entries/{key}",
		"PUT /v1/fleet/entries/{key}",
		"GET /metrics",
		"GET /v1/metrics/history",
		"GET /v1/metrics/stream",
		"GET /v1/fleet/metrics",
		"GET /v1/debug/slow",
	}
}

// ServeHTTP implements http.Handler: every request runs inside a root
// span whose trace ID comes from the caller's X-Trace-Id header when
// valid (and is always echoed back in the response's X-Trace-Id), with
// latency recorded into the /metrics histogram and one structured log
// line emitted on completion.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.counters.requests.Add(1)
	span := s.tracer.StartRoot(r.Method+" "+r.URL.Path, r.Header.Get("X-Trace-Id"))
	w.Header().Set("X-Trace-Id", span.TraceID())
	if s.fleet != nil {
		w.Header().Set("X-Comasrv-Shard", s.fleet.self.ID)
	}
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r.WithContext(tracing.NewContext(r.Context(), span)))
	dur := time.Since(start)
	// The SSE stream is a long-lived subscription, not a request: its
	// lifetime would drown the latency histogram and pin the slow ring.
	streaming := r.URL.Path == "/v1/metrics/stream"
	if !streaming {
		s.reqDur.Observe(dur.Seconds())
		s.slow.note(SlowRequest{
			TraceID:    span.TraceID(),
			Method:     r.Method,
			Path:       r.URL.Path,
			Status:     sw.status,
			Source:     r.RemoteAddr,
			DurationMs: float64(dur) / float64(time.Millisecond),
			StartUnix:  start.Unix(),
		})
	}
	span.SetAttr("status", strconv.Itoa(sw.status))
	span.End()
	level := slog.LevelInfo
	msg := "request"
	if !streaming && s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold {
		level, msg = slog.LevelWarn, "slow request"
	}
	s.logger.LogAttrs(r.Context(), level, msg,
		slog.String("trace_id", span.TraceID()),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("duration", dur))
}

// statusRecorder captures the response status for the request log and
// root span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so server-sent events pass
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Close cancels every running and queued job (their simulations stop
// between scheduler steps) and releases the server's resources. Drain
// HTTP traffic first (http.Server.Shutdown), then Close.
func (s *Server) Close() {
	s.stop()
}

// Store exposes the result store (the daemon's flags and tests use it).
func (s *Server) Store() *store.Store { return s.store }

// --- plumbing ---------------------------------------------------------

type apiError struct {
	status int
	msg    string
	// retryAfter, when positive, is surfaced as a Retry-After header
	// (load shedding).
	retryAfter int
}

func (e *apiError) Error() string { return e.msg }

func errStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeErr(w http.ResponseWriter, status int, err error) {
	var ae *apiError
	if errors.As(err, &ae) && ae.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// decodeBody strictly decodes an optional JSON body into v; an empty
// body leaves v untouched.
func decodeBody(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return &apiError{status: http.StatusBadRequest, msg: "reading body: " + err.Error()}
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &apiError{status: http.StatusBadRequest, msg: "bad request body: " + err.Error()}
	}
	return nil
}

// newRunner builds the per-flight experiment runner wired into the
// daemon's counters, observability aggregation and cancellation.
func (s *Server) newRunner(ctx context.Context, procs, jobs int) *experiments.Runner {
	r := experiments.NewRunner()
	r.Procs = procs
	r.Jobs = jobs
	r.Ctx = ctx
	r.OnSimulate = func(string, config.Machine) { s.counters.simsExecuted.Add(1) }
	r.SinkFactory = func(string, config.Machine) obs.Sink { return s.obsSink }
	parent := tracing.FromContext(ctx)
	r.Generate = func(app string, procs int) (*trace.Trace, error) {
		sp := parent.StartChild("trace.generate")
		defer sp.End()
		sp.SetAttr("app", app)
		sp.SetAttr("procs", strconv.Itoa(procs))
		tr, reused, err := s.generated.get(app, procs)
		sp.SetAttr("reused", strconv.FormatBool(reused))
		sp.SetErr(err)
		return tr, err
	}
	r.WrapSimulate = func(app string, cfg config.Machine) func(error) {
		sp := parent.StartChild("simulate")
		sp.SetAttr("app", app)
		sp.SetAttr("cfg", experiments.CfgLabel(cfg))
		return func(err error) {
			sp.SetErr(err)
			sp.End()
		}
	}
	return r
}

// execute is the shared request path: store lookup, singleflight
// collapse, peer fill (fleet mode), slot acquisition, compute, store
// fill. weight is the number of simulation slots the computation needs
// (1 for a single run, the whole pool for a study). The returned source
// says whether the body came from the local store, a peer shard, or a
// simulation run here.
func (s *Server) execute(ctx context.Context, key store.Key, nocache bool, weight int64,
	compute func(ctx context.Context) ([]byte, error)) (body []byte, src source, err error) {

	span := tracing.FromContext(ctx)
	if nocache {
		s.counters.cacheBypassed.Add(1)
	} else {
		lk := span.StartChild("store.lookup")
		b, ok := s.store.Get(key)
		lk.End()
		if ok {
			s.counters.cacheHits.Add(1)
			s.noteHit(key)
			return b, srcLocal, nil
		}
	}

	fk := flightKey{key: key, nocache: nocache}
	s.flightsMu.Lock()
	if fl, ok := s.flights[fk]; ok {
		s.flightsMu.Unlock()
		s.counters.flightsCollapsed.Add(1)
		select {
		case <-fl.done:
			return fl.body, fl.src, fl.err
		case <-ctx.Done():
			return nil, srcCompute, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{}), src: srcCompute}
	s.flights[fk] = fl
	s.flightsMu.Unlock()

	s.counters.flightsExecuted.Add(1)
	s.counters.activeFlights.Add(1)
	fl.body, fl.err = func() (body []byte, err error) {
		// A panicking computation fails its flight with a 500 that is
		// never stored. Unrecovered, it would kill the daemon from an
		// async job's goroutine, or leave the flight open so every later
		// identical request waits until its context ends. A study's
		// simulations run on the runner's pool workers, which recover
		// their panics into the same error type.
		defer func() {
			if p := recover(); p != nil {
				body, err = nil, &experiments.PanicError{Value: p, Stack: debug.Stack()}
			}
		}()
		// Before spending a simulation slot, ask the shard that owns
		// this content address (peer fill). Any failure — peer down,
		// slow, a miss, a corrupt payload — falls through to compute.
		if s.fleet != nil && !nocache {
			if b, ok := s.peerFill(ctx, key); ok {
				fl.src = srcPeer
				return b, nil
			}
		}
		qw := span.StartChild("queue.wait")
		qstart := time.Now()
		err = s.pool.AcquireBounded(ctx, weight, s.cfg.MaxQueue)
		s.queueWait.Observe(time.Since(qstart).Seconds())
		if errors.Is(err, errSaturated) {
			s.counters.loadShed.Add(1)
			err = &apiError{
				status:     http.StatusTooManyRequests,
				msg:        fmt.Sprintf("simulation queue is full (%d waiting)", s.pool.Waiting()),
				retryAfter: s.retryAfterSeconds(),
			}
		}
		qw.SetErr(err)
		qw.End()
		if err != nil {
			return nil, err
		}
		defer s.pool.Release(weight)
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		return compute(ctx)
	}()
	s.counters.activeFlights.Add(-1)
	var pe *experiments.PanicError
	if errors.As(fl.err, &pe) {
		s.logger.Error("computation panic", slog.String("key", key.String()),
			slog.Any("panic", pe.Value), slog.String("stack", string(pe.Stack)))
	}
	if fl.err == nil && !nocache {
		// A failed persist degrades to cache-miss behavior; the response
		// is still correct. A peer-filled body is persisted too: the
		// entry migrates to where it is used, attraction-memory style.
		_ = s.store.Put(key, fl.body)
	}
	s.flightsMu.Lock()
	delete(s.flights, fk)
	s.flightsMu.Unlock()
	close(fl.done)
	return fl.body, fl.src, fl.err
}

// retryAfterSeconds estimates a Retry-After hint for shed requests from
// the observed mean queue wait, clamped to [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	_, sum, total := s.queueWait.snapshot()
	sec := 1
	if total > 0 {
		if mean := sum / float64(total); mean > 1 {
			sec = int(mean + 0.5)
		}
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// --- handlers ---------------------------------------------------------

// Healthz is the GET /v1/healthz payload: liveness plus enough identity
// (schema version, build info, uptime) to tell *what* is alive.
type Healthz struct {
	Status        string  `json:"status"`
	SimSlots      int64   `json:"sim_slots"`
	SchemaVersion int     `json:"schema_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Module        string  `json:"module,omitempty"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
	VCSTime       string  `json:"vcs_time,omitempty"`
	// Fleet identity, present only in fleet mode: which shard this is
	// and how it sees the rest of the ring.
	ShardID string       `json:"shard_id,omitempty"`
	Fleet   *FleetHealth `json:"fleet,omitempty"`
}

// FleetHealth is the fleet view embedded in /v1/healthz.
type FleetHealth struct {
	Members        []string     `json:"members"`
	ReachablePeers int          `json:"reachable_peers"`
	Peers          []PeerHealth `json:"peers"`
}

// buildID is the embedded build identity, read once at startup.
var buildID = func() (b struct{ mod, rev, vcsTime string }) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.mod = bi.Main.Path
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			b.rev = kv.Value
		case "vcs.time":
			b.vcsTime = kv.Value
		}
	}
	return b
}()

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Healthz{
		Status:        "ok",
		SimSlots:      s.pool.Size(),
		SchemaVersion: schemaVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		GoVersion:     runtime.Version(),
		Module:        buildID.mod,
		VCSRevision:   buildID.rev,
		VCSTime:       buildID.vcsTime,
	}
	if f := s.fleet; f != nil {
		h.ShardID = f.self.ID
		fh := &FleetHealth{Peers: f.peerView()}
		for _, m := range f.ring.Members() {
			fh.Members = append(fh.Members, m.ID)
		}
		for _, p := range fh.Peers {
			if p.Reachable {
				fh.ReachablePeers++
			}
		}
		h.Fleet = fh
	}
	writeJSON(w, http.StatusOK, h)
}

// handleTrace serves GET /v1/traces/{id}, which spans two namespaces
// distinguished by ID shape: a 64-hex content digest names an uploaded
// workload trace (POST /v1/traces), while the tracer ring's 32-hex IDs
// name retained request traces, served as JSON or (with ?format=jsonl)
// one span per line.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if digest, err := ParseTraceDigest(id); err == nil {
		s.handleUploadedTraceGet(w, r, digest)
		return
	}
	td, ok := s.tracer.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (ring keeps the most recent %d)", id, tracing.DefaultCapacity))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		td.WriteJSONL(w)
		return
	}
	writeJSON(w, http.StatusOK, td)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	// "workloads" stays the paper's Table 1 set; the irregular/allocator
	// families ride in the additive "extras" list (both are valid "app"
	// values for /v1/simulate).
	writeJSON(w, http.StatusOK, map[string]any{
		"workloads": apps.Names(),
		"extras":    apps.ExtraNames(),
	})
}

// SimEnvelope is the POST /v1/simulate response: the content address,
// whether the store served it, and the result payload. Source is only
// present in fleet mode ("local", "peer" or "compute"); single-shard
// responses are byte-identical to the pre-fleet schema.
type SimEnvelope struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Source string          `json:"source,omitempty"`
	Result json.RawMessage `json:"result"`
}

// SimResult is the cached payload of one simulation: the paper-facing
// metrics of machine.Result in a stable JSON schema (documented in
// API.md).
type SimResult struct {
	ExecTimeNs     int64    `json:"exec_time_ns"`
	RNMr           float64  `json:"rnmr"`
	Reads          int64    `json:"reads"`
	ReadNodeMisses int64    `json:"read_node_misses"`
	BusOccupancyNs [3]int64 `json:"bus_occupancy_ns"` // read, write, replace
	WriteBacks     int64    `json:"write_backs"`
	DirtyPurges    int64    `json:"dirty_purges"`
	BusUtilization float64  `json:"bus_utilization"`
	MaxDRAMUtil    float64  `json:"max_dram_utilization"`
	Imbalance      float64  `json:"imbalance"`
	Breakdown      struct {
		Busy   float64 `json:"busy_ns"`
		SLC    float64 `json:"slc_ns"`
		AM     float64 `json:"am_ns"`
		Remote float64 `json:"remote_ns"`
		Sync   float64 `json:"sync_ns"`
	} `json:"breakdown"`
	ReadLatencyP50Ns int64      `json:"read_latency_p50_ns"`
	ReadLatencyP99Ns int64      `json:"read_latency_p99_ns"`
	Protocol         coma.Stats `json:"protocol"`
}

func newSimResult(res *machine.Result) SimResult {
	out := SimResult{
		ExecTimeNs:       int64(res.ExecTime),
		RNMr:             res.RNMr(),
		Reads:            res.Reads,
		ReadNodeMisses:   res.ReadNodeMisses,
		WriteBacks:       res.WriteBacks,
		DirtyPurges:      res.DirtyPurges,
		BusUtilization:   res.BusUtilization,
		MaxDRAMUtil:      res.MaxDRAMUtilization(),
		Imbalance:        res.Imbalance(),
		ReadLatencyP50Ns: res.ReadLatency.Quantile(0.5),
		ReadLatencyP99Ns: res.ReadLatency.Quantile(0.99),
		Protocol:         res.Protocol,
	}
	for i, v := range res.BusOccupancy {
		out.BusOccupancyNs[i] = int64(v)
	}
	b := res.Breakdown()
	out.Breakdown.Busy = b.Busy
	out.Breakdown.SLC = b.SLC
	out.Breakdown.AM = b.AM
	out.Breakdown.Remote = b.Remote
	out.Breakdown.Sync = b.Sync
	return out
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := decodeBody(r, &req); err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, errStatus(err), err)
		return
	}
	cspan := tracing.FromContext(r.Context()).StartChild("canonicalize")
	cfg, err := req.normalize()
	if err != nil {
		cspan.SetErr(err)
		cspan.End()
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key := req.key()
	cspan.End()
	nocache := r.URL.Query().Get("nocache") == "1"
	compute := func(ctx context.Context) ([]byte, error) {
		var res *machine.Result
		if req.TraceRef != "" {
			// Simulate-by-reference: the uploaded trace supplies the
			// machine size, so the geometry checks normalize deferred run
			// now — their failures are the client's, not the server's.
			tr, err := s.loadTrace(ctx, req.TraceRef)
			if err != nil {
				return nil, err
			}
			tcfg, err := req.geometry(tr.Procs)
			if err != nil {
				return nil, &apiError{status: http.StatusBadRequest, msg: err.Error()}
			}
			runner := s.newRunner(ctx, tr.Procs, 1)
			res, err = runner.RunTrace(tr, tcfg)
			if err != nil {
				return nil, err
			}
			s.counters.traceSims.Add(1)
		} else {
			runner := s.newRunner(ctx, req.Procs, 1)
			var err error
			res, err = runner.Run(req.App, cfg)
			if err != nil {
				return nil, err
			}
		}
		s.counters.simulatedRuns.Add(1)
		s.counters.simulatedExecNs.Add(int64(res.ExecTime))
		return json.Marshal(newSimResult(res))
	}
	if r.URL.Query().Get("async") == "1" {
		s.respondAsync(w, r, key, nocache, 1, "application/json", compute)
		return
	}
	body, src, err := s.execute(r.Context(), key, nocache, 1, compute)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	env := SimEnvelope{Key: key.String(), Cached: src == srcLocal, Result: body}
	if s.fleet != nil {
		env.Source = string(src)
	}
	writeJSON(w, http.StatusOK, env)
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	study := r.PathValue("study")
	valid := study == "sweep"
	if _, ok := studies[study]; ok {
		valid = true
	}
	if !valid {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown study %q (known: %v)", study, StudyNames()))
		return
	}
	var req StudyRequest
	if err := decodeBody(r, &req); err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, errStatus(err), err)
		return
	}
	cspan := tracing.FromContext(r.Context()).StartChild("canonicalize")
	spec, err := req.normalize(study)
	if err != nil {
		cspan.SetErr(err)
		cspan.End()
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key := req.key(study)
	cspan.End()
	nocache := r.URL.Query().Get("nocache") == "1"
	compute := func(ctx context.Context) (body []byte, err error) {
		runner := s.newRunner(ctx, req.Procs, s.cfg.Jobs)
		// The render span covers the whole artifact production; the
		// simulations it fans out to appear as sibling simulate spans.
		rspan := tracing.FromContext(ctx).StartChild("render")
		defer func() {
			rspan.SetErr(err)
			rspan.End()
		}()
		var buf bytes.Buffer
		if study == "sweep" {
			rows, err := runner.Sweep(spec)
			if err != nil {
				return nil, err
			}
			if err := experiments.WriteSweepCSV(&buf, rows); err != nil {
				return nil, err
			}
		} else if err := experiments.RenderArtifact(&buf, runner, studies[study], req.Chart); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	if r.URL.Query().Get("async") == "1" {
		s.respondAsync(w, r, key, nocache, s.pool.Size(), "text/plain; charset=utf-8", compute)
		return
	}
	body, src, err := s.execute(r.Context(), key, nocache, s.pool.Size(), compute)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	s.writeStudy(w, key, src, body)
}

func (s *Server) writeStudy(w http.ResponseWriter, key store.Key, src source, body []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Comasrv-Key", key.String())
	w.Header().Set("X-Comasrv-Cached", fmt.Sprintf("%t", src == srcLocal))
	if s.fleet != nil {
		w.Header().Set("X-Comasrv-Source", string(src))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// respondAsync enqueues the computation as a job and answers 202 with
// the job's view. The request's span is threaded into the job context,
// so the stages of an async computation land in the same trace as the
// 202 response that launched it (the root span ends at the 202; late
// children are still recorded).
func (s *Server) respondAsync(w http.ResponseWriter, r *http.Request, key store.Key, nocache bool, weight int64,
	contentType string, compute func(ctx context.Context) ([]byte, error)) {

	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = tracing.NewContext(ctx, tracing.FromContext(r.Context()))
	j := s.newJob(key, cancel)
	s.counters.jobsCreated.Add(1)
	go func() {
		defer cancel()
		if !j.setRunning() {
			return // cancelled while queued
		}
		body, src, err := s.execute(ctx, key, nocache, weight, compute)
		srcStr := ""
		if s.fleet != nil {
			srcStr = string(src)
		}
		j.finish(body, contentType, src == srcLocal, srcStr, err, s.now())
	}()
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.mu.Lock()
	status, body, contentType, cached, srcStr := j.status, j.body, j.contentType, j.cached, j.source
	key := j.key
	j.mu.Unlock()
	if status != JobDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", j.id, status))
		return
	}
	if contentType == "application/json" {
		writeJSON(w, http.StatusOK, SimEnvelope{Key: key.String(), Cached: cached, Source: srcStr, Result: body})
		return
	}
	src := srcCompute
	if cached {
		src = srcLocal
	}
	if srcStr != "" {
		src = source(srcStr)
	}
	s.writeStudy(w, key, src, body)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.markCancelled(s.now())
	j.cancel()
	s.counters.jobsCancelled.Add(1)
	writeJSON(w, http.StatusOK, j.view())
}
