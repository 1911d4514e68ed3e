package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"sort"
	"time"

	"powerbench/internal/fleet"
	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// This file is the service's request-tracing surface (DESIGN.md §11): every
// compute request carries a tracectx trace from HTTP ingress down through
// the scheduler and simulation, and settled traces land in a bounded,
// content-addressed store behind GET /v1/traces, tail-sampled so the
// forensically interesting ones (errors, faulted runs, slow requests, cache
// misses) are always retained.

// traceHeader names the response header carrying the request's trace id.
// Like the flight id, it is a pure function of the canonical request key,
// so it is present on every response path — a client holding the id can
// fetch the trace once (and if) the tail sampler kept it.
const traceHeader = "X-Powerbench-Trace"

// sampleReason decides tail-based retention for a settled trace and names
// the rule that kept it. The decision runs after completion (that is what
// makes it tail sampling: outcome known, not guessed at ingress) and its
// probabilistic arm hashes the canonical request key — never wall clock —
// so whether a given request's trace is kept is itself deterministic.
// Empty string means drop.
func (s *Server) sampleReason(status int, faulted bool, how string, dur time.Duration, key string) string {
	switch {
	case status >= 400:
		return "error"
	case faulted:
		return "faulted"
	case dur >= s.cfg.traceSlow():
		return "slow"
	case how == "miss":
		return "cache-miss"
	case how == "peer":
		// Peer-served misses are always retained: they document the
		// cluster's routing decisions (which shard owned the key, how long
		// the fetch took) — exactly what a cross-shard forensics question
		// needs.
		return "peer"
	case keyFraction(key) < s.cfg.traceSampleRate():
		return "sampled"
	}
	return ""
}

// keyFraction maps a request key to a uniform [0,1) fraction via a
// domain-separated hash, the deterministic stand-in for a sampling coin.
func keyFraction(key string) float64 {
	sum := sumKey("powerbench-trace-sample|", key)
	return float64(binary.BigEndian.Uint64(sum[:8])) / float64(1<<63) / 2
}

// sumKey is the SHA-256 of prefix+key, hashed from a stack buffer that
// holds a compare key over three servers; a longer key grows it on the
// heap.
func sumKey(prefix, key string) [sha256.Size]byte {
	var buf [256]byte
	return sha256.Sum256(append(append(buf[:0], prefix...), key...))
}

// storedTrace is one trace-store entry: the frozen trace, the request
// metadata its document renders with, its listing row and the heap bytes
// the trace holds. The document is rendered only when someone reads it.
type storedTrace struct {
	tr   *tracectx.Trace
	m    tracectx.Meta
	meta fleet.TraceSummary
	size int
}

// newTraceStore returns the bounded trace repository, LRU-evicted by entry
// count with byte accounting (the stored traces' Size) for the health
// surface. Because trace ids are content addresses, a hit and a later miss
// of the same request share an id; a richer trace (more spans) replaces a
// poorer one, so a full compute trace is never clobbered by the stub trace
// of a later cache hit.
func newTraceStore(capacity int) *lru[storedTrace] {
	return newLRU(capacity, func(t storedTrace) int { return t.size },
		func(old, t storedTrace) bool { return t.meta.Spans > old.meta.Spans })
}

// localTrace renders the trace document this shard stored under id.
func (s *Server) localTrace(id string) ([]byte, bool) {
	t, ok := s.traces.Get(id)
	if !ok {
		return nil, false
	}
	return t.tr.Render(t.m).Body, true
}

// traceList returns the stored traces' listing rows sorted by trace id.
func (s *Server) traceList() []fleet.TraceSummary {
	stored := s.traces.Values()
	out := make([]fleet.TraceSummary, len(stored))
	for i, t := range stored {
		out[i] = t.meta
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}

// newRequestTrace opens the trace for one compute request: id derived from
// the canonical key, root span named after the route, and the client's
// traceparent (if one parses) recorded as origin metadata. The internal
// trace id stays canonical even under an incoming parent — two peers
// computing the same key converge on the same trace — but the origin field
// preserves the upstream hop for cross-linking.
func newRequestTrace(req *http.Request, route, key string) *tracectx.Trace {
	tr := tracectx.New(tracectx.DeriveID(key), route, "serve")
	if v := req.Header[traceparentKey]; len(v) > 0 && v[0] != "" {
		if _, err := tracectx.Parse(v[0]); err == nil {
			tr.SetOrigin(v[0])
		}
	}
	return tr
}

// traceparentKey is the W3C traceparent header's canonical key, under
// which net/http stores it; indexing the header map with it skips
// canonicalizing tracectx.TraceparentHeader on every request.
const traceparentKey = "Traceparent"

// storeTrace applies the tail-sampling policy to a settled request's
// trace and keeps it frozen, with the request's key, status, retention
// reason and flight id its document renders with on read. Drops are
// counted, and the traces the store keeps are labeled by rule, so the
// sampler's behavior is observable.
func (s *Server) storeTrace(tr *tracectx.Trace, route, key, flight string, status int, faulted bool, how string, dur time.Duration) {
	if tr == nil {
		return
	}
	reason := s.sampleReason(status, faulted, how, dur, key)
	if reason == "" {
		s.ctr.tracesDropped.Inc()
		return
	}
	// The store keeps the richer of two traces under one id, so a trace
	// with no more spans than the stored one (a sampled hit's stub after
	// its miss's full trace) would be frozen only to be declined. The
	// lookup still marks the stored trace most recently used.
	id := tr.ID().String()
	if old, ok := s.traces.Get(id); ok && old.meta.Spans >= tr.Len() {
		return
	}
	// Freezing fixes the document every later read renders: a goroutine
	// still holding one of its spans can no longer change it.
	tr.Freeze()
	m := tracectx.Meta{Key: key, Status: status, Reason: reason, Flight: flight}
	evicted, kept := s.traces.put(id, storedTrace{tr: tr, m: m, size: tr.Size(), meta: fleet.TraceSummary{
		Trace: id, Root: route, Status: status, Reason: reason,
		DurationUS: tr.DurationUS(), Flight: flight, Spans: tr.Len(),
		Shard: s.cluster.Self(),
	}})
	if !kept {
		return
	}
	if s.traceStored != nil {
		s.traceStored(tr, m, tr.Render(m).Body)
	}
	s.obs.Counter("serve_traces_stored_total", obs.L("reason", reason)).Inc()
	s.ctr.traceEvictions.Add(int64(evicted))
	s.obs.Gauge("serve_trace_entries").Set(float64(s.traces.Len()))
	s.obs.Gauge("serve_trace_bytes").Set(float64(s.traces.Bytes()))
}

// handleTraces lists the stored traces with store occupancy. On a sharded
// daemon the listing is federated: every up peer's store is merged in,
// deduped by trace id, with the partial marker when some member could not
// contribute. A standalone daemon serves its local store unchanged.
func (s *Server) handleTraces(w http.ResponseWriter, req *http.Request) {
	l := s.localListing()
	if !s.fleet.Standalone() {
		l = s.fleet.List(req.Context())
	}
	body, err := marshalBody(l)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// handleTrace serves one trace document by id. On a sharded daemon the
// response is the federated stitch: this shard's stored document (if any)
// merged with every up peer's contribution for the same id, so a client can
// ask any shard and receive the whole cross-shard tree.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validTraceID(id) {
		writeError(w, http.StatusBadRequest, "trace id must be 32 lowercase hex characters")
		return
	}
	if !s.fleet.Standalone() {
		doc, found := s.fleet.Trace(req.Context(), id)
		if !found {
			writeError(w, http.StatusNotFound, "no trace retained under "+id+" (tail sampling keeps error/faulted/slow/cache-miss traces)")
			return
		}
		body, err := marshalBody(doc)
		if err != nil {
			fail(w, err)
			return
		}
		writeBody(w, http.StatusOK, "", body)
		return
	}
	doc, ok := s.localTrace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace retained under "+id+" (tail sampling keeps error/faulted/slow/cache-miss traces)")
		return
	}
	writeBody(w, http.StatusOK, "", doc)
}

func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
