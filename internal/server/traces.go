package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"repro/internal/server/store"
	"repro/internal/trace"
)

// Upload-quota defaults (Config.MaxTraceBytes / Config.MaxTraces).
// A 16-processor kernel trace is a few megabytes in the compact wire
// format (TRACES.md), so the defaults hold a workbench of uploads
// without letting one client fill the store.
const (
	DefaultMaxTraceBytes = 8 << 20
	DefaultMaxTraces     = 256
)

func (s *Server) maxTraceBytes() int64 {
	if s.cfg.MaxTraceBytes > 0 {
		return s.cfg.MaxTraceBytes
	}
	return DefaultMaxTraceBytes
}

func (s *Server) maxTraces() int {
	if s.cfg.MaxTraces > 0 {
		return s.cfg.MaxTraces
	}
	return DefaultMaxTraces
}

// traceKeyPrefix namespaces uploaded trace payloads inside the result
// store, so a trace and a simulation result can never collide even
// though they share the two-level store (and, in fleet mode, the
// entry-exchange routes).
const traceKeyPrefix = "comasrv-trace-v1\n"

// traceStoreKey derives the store key of an uploaded trace from its
// content digest (the SHA-256 of the wire payload, in hex).
func traceStoreKey(digest string) store.Key {
	return store.KeyOf([]byte(traceKeyPrefix + digest))
}

// ParseTraceDigest validates the digest form uploaded traces are named
// by — 64 hex characters, the SHA-256 of the COMATRC2 payload — and
// returns it lowercased.
func ParseTraceDigest(s string) (string, error) {
	if len(s) != 64 {
		return "", fmt.Errorf("bad trace digest %q: want 64 hex characters", s)
	}
	s = strings.ToLower(s)
	if _, err := hex.DecodeString(s); err != nil {
		return "", fmt.Errorf("bad trace digest %q: want 64 hex characters", s)
	}
	return s, nil
}

// TraceMeta is the stored metadata of one uploaded trace — the POST
// /v1/traces response and the GET /v1/traces list rows.
type TraceMeta struct {
	// Digest content-addresses the upload: the SHA-256 of the wire
	// payload. It is the trace_ref value POST /v1/simulate accepts.
	Digest string `json:"digest"`
	Name   string `json:"name"`
	Procs  int    `json:"procs"`
	// WorkingSetBytes is the trace's declared footprint (sizes the
	// simulated memory system).
	WorkingSetBytes uint64 `json:"working_set_bytes"`
	// SizeBytes is the wire payload size.
	SizeBytes int64 `json:"size_bytes"`
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	Barriers  int64 `json:"barriers"`
}

// TraceList is the GET /v1/traces payload.
type TraceList struct {
	Traces        []TraceMeta `json:"traces"`
	Count         int         `json:"count"`
	MaxTraces     int         `json:"max_traces"`
	MaxTraceBytes int64       `json:"max_trace_bytes"`
}

func traceMetaOf(digest string, tr *trace.Trace, sizeBytes int64) TraceMeta {
	sum := tr.Counts()
	return TraceMeta{
		Digest:          digest,
		Name:            tr.Name,
		Procs:           tr.Procs,
		WorkingSetBytes: tr.WorkingSet,
		SizeBytes:       sizeBytes,
		Reads:           sum.Reads,
		Writes:          sum.Writes,
		Barriers:        sum.Barriers,
	}
}

// handleTraceUpload is POST /v1/traces: validate an untrusted COMATRC2
// payload with the hardened decoder, content-address it, and persist it
// in the result store. Re-uploading identical bytes is idempotent (200
// with the same digest); a new trace answers 201.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	maxB := s.maxTraceBytes()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxB+1))
	if err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if int64(len(body)) > maxB {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("trace exceeds the %d-byte upload limit", maxB))
		return
	}
	tr, err := trace.DecodeCompact(body)
	if err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad trace: %w", err))
		return
	}
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	meta := traceMetaOf(digest, tr, int64(len(body)))

	s.tracesMu.Lock()
	_, exists := s.traceIdx[digest]
	if !exists && len(s.traceIdx) >= s.maxTraces() {
		s.tracesMu.Unlock()
		writeErr(w, http.StatusInsufficientStorage,
			fmt.Errorf("trace store is full (%d traces); DELETE /v1/traces/{digest} frees a slot", s.maxTraces()))
		return
	}
	s.traceIdx[digest] = meta
	s.tracesMu.Unlock()

	if !exists {
		if err := s.store.Put(traceStoreKey(digest), body); err != nil {
			s.tracesMu.Lock()
			delete(s.traceIdx, digest)
			s.tracesMu.Unlock()
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.counters.tracesUploaded.Add(1)
		if s.fleet != nil {
			// Push the payload to the shard that owns its content address
			// (best effort), so a simulate-by-ref landing anywhere in the
			// fleet can peer-fill the trace from its owner.
			go s.pushTraceToOwner(digest, body)
		}
	}
	status := http.StatusCreated
	if exists {
		status = http.StatusOK
	}
	writeJSON(w, status, meta)
}

// pushTraceToOwner forwards an uploaded trace to the fleet shard owning
// its content address. Failures are counted and otherwise ignored — the
// uploading shard keeps its copy, so at worst a remote simulate-by-ref
// recomputes nothing and simply misses until re-upload.
func (s *Server) pushTraceToOwner(digest string, body []byte) {
	f := s.fleet
	key := traceStoreKey(digest)
	owner := f.ring.Owner([sha256.Size]byte(key))
	if owner.ID == f.self.ID {
		return
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, f.cfg.PeerTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, owner.URL+entryPath(key), bytes.NewReader(body))
	if err != nil {
		s.counters.replicationErrors.Add(1)
		return
	}
	// The entry checksum of a trace payload is its digest by definition.
	req.Header.Set(checksumHeader, digest)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := f.client.Do(req)
	if err != nil {
		s.counters.replicationErrors.Add(1)
		f.setReach(owner.ID, false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	f.setReach(owner.ID, true)
	if resp.StatusCode/100 != 2 {
		s.counters.replicationErrors.Add(1)
		return
	}
	s.counters.replicationPushed.Add(1)
}

// loadTrace resolves a trace_ref for simulation: local store first, then
// (fleet mode) the owner shard. The decode cannot fail for bytes this
// server stored, but a corrupt persisted payload — disk rot survives the
// store's envelope checksum only if it predates it — is dropped rather
// than run.
func (s *Server) loadTrace(ctx context.Context, digest string) (*trace.Trace, error) {
	key := traceStoreKey(digest)
	body, ok := s.store.Get(key)
	if !ok && s.fleet != nil {
		if b, hit := s.peerFill(ctx, key); hit {
			body, ok = b, true
			_ = s.store.Put(key, b)
		}
	}
	if !ok {
		return nil, &apiError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown trace %s (upload it with POST /v1/traces)", digest)}
	}
	tr, err := trace.DecodeCompact(body)
	if err != nil {
		_ = s.store.Delete(key)
		s.tracesMu.Lock()
		delete(s.traceIdx, digest)
		s.tracesMu.Unlock()
		return nil, &apiError{status: http.StatusNotFound,
			msg: fmt.Sprintf("stored trace %s was corrupt and has been dropped; upload it again", digest)}
	}
	return tr, nil
}

// handleTraceList is GET /v1/traces: the uploaded-trace index in digest
// order, plus the active quotas. The index covers traces uploaded since
// daemon start; payloads persisted by an earlier process remain
// retrievable and runnable by digest, and re-enter the list on first
// touch.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	s.tracesMu.Lock()
	metas := make([]TraceMeta, 0, len(s.traceIdx))
	for _, m := range s.traceIdx {
		metas = append(metas, m)
	}
	s.tracesMu.Unlock()
	sort.Slice(metas, func(i, j int) bool { return metas[i].Digest < metas[j].Digest })
	writeJSON(w, http.StatusOK, TraceList{
		Traces:        metas,
		Count:         len(metas),
		MaxTraces:     s.maxTraces(),
		MaxTraceBytes: s.maxTraceBytes(),
	})
}

// handleUploadedTraceGet serves one uploaded trace: its metadata as
// JSON, or the raw COMATRC2 payload with ?format=bin. A digest absent
// from the index but present in the persistent store (uploaded before a
// restart) is re-indexed on the way through.
func (s *Server) handleUploadedTraceGet(w http.ResponseWriter, r *http.Request, digest string) {
	key := traceStoreKey(digest)
	if r.URL.Query().Get("format") == "bin" {
		body, ok := s.store.Get(key)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %s", digest))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	s.tracesMu.Lock()
	meta, ok := s.traceIdx[digest]
	s.tracesMu.Unlock()
	if !ok {
		body, found := s.store.Get(key)
		if !found {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %s", digest))
			return
		}
		tr, err := trace.DecodeCompact(body)
		if err != nil {
			_ = s.store.Delete(key)
			writeErr(w, http.StatusNotFound,
				fmt.Errorf("stored trace %s was corrupt and has been dropped; upload it again", digest))
			return
		}
		meta = traceMetaOf(digest, tr, int64(len(body)))
		s.tracesMu.Lock()
		s.traceIdx[digest] = meta
		s.tracesMu.Unlock()
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleTraceDelete is DELETE /v1/traces/{digest}: drop an uploaded
// trace from the index and both store layers. In fleet mode each shard
// deletes only its own copy. Simulation results computed from the trace
// are cached under their own request keys and are not invalidated — a
// content-addressed result stays correct forever.
func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	digest, err := ParseTraceDigest(r.PathValue("id"))
	if err != nil {
		s.counters.badRequests.Add(1)
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	key := traceStoreKey(digest)
	s.tracesMu.Lock()
	_, known := s.traceIdx[digest]
	delete(s.traceIdx, digest)
	s.tracesMu.Unlock()
	if !known {
		if _, found := s.store.Get(key); !found {
			writeErr(w, http.StatusNotFound, fmt.Errorf("unknown trace %s", digest))
			return
		}
	}
	if err := s.store.Delete(key); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.counters.tracesDeleted.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
}

// retainedTraces is the current index size (a /v1/metrics gauge).
func (s *Server) retainedTraces() int {
	s.tracesMu.Lock()
	defer s.tracesMu.Unlock()
	return len(s.traceIdx)
}
