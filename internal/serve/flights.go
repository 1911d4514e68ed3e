package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"path/filepath"

	"powerbench/internal/tracectx"
)

// This file is the service's flight-recorder surface (DESIGN.md §10): each
// computed request records a flight (per-run records with phase energy
// attribution), stored under a content-addressed flight id and served back
// on GET /v1/flights/{id} as JSONL for `powerbench flight` to inspect.

// flightHeader names the response header carrying the request's flight id.
// The id is a pure function of the request key, so it is present on hits,
// misses and dedup joins alike; the stored flight itself exists once the
// underlying computation has settled successfully.
const flightHeader = "X-Powerbench-Flight"

// flightID derives the stable flight identifier for a request: the hex
// SHA-256 of the canonical request key. Identical requests share a flight
// id exactly as they share cached response bytes.
func flightID(key string) string {
	sum := sumKey("", key)
	var id [2 * sha256.Size]byte
	hex.Encode(id[:], sum[:])
	return string(id[:])
}

// setIDs sets a compute response's identity headers: the flight id, the
// trace id and the traceparent naming the trace's root span. The flight id
// and the traceparent are rendered into one string, the trace id is the
// traceparent's [3:35] substring, and the three header values share one
// backing slice. It returns the flight id.
func setIDs(h http.Header, key string, trace tracectx.ID, root tracectx.SpanID) string {
	var b [2*sha256.Size + tracectx.TraceparentLen]byte
	sum := sumKey("", key)
	n := hex.Encode(b[:], sum[:])
	ids := string(tracectx.AppendTraceparent(b[:n], trace, root, true))
	tp := ids[n:]
	vals := []string{ids[:n], tp[3:35], tp}
	h[flightHeader] = vals[0:1:1]
	h[traceHeader] = vals[1:2:2]
	h[traceparentKey] = vals[2:3:3]
	return ids[:n]
}

// putFlight publishes flight-record JSONL under id: into the bounded
// in-memory store always, and as <id>.jsonl under FlightDir when
// configured (post-mortem pickup across restarts). counter names where the
// records came from — this shard's computation or a peer's replica.
func (s *Server) putFlight(id string, data []byte, counter string) {
	evicted := s.flightRecs.Put(id, data)
	s.obs.Counter(counter).Inc()
	s.obs.Counter("serve_flight_evictions_total").Add(int64(evicted))
	s.obs.Gauge("serve_flight_entries").Set(float64(s.flightRecs.Len()))
	if s.cfg.FlightDir != "" {
		path := filepath.Join(s.cfg.FlightDir, id+".jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			s.obs.Counter("serve_flight_write_errors_total").Inc()
			s.obs.Infof("flight %s not persisted: %v", id, err)
		}
	}
}

// handleFlight serves a stored flight-record stream by id: the in-memory
// store, then FlightDir, then — on a sharded daemon — a read-through to the
// peers' stores. The flight id is a content hash (not reversible to an
// owning shard), so the peer hop fans out; whichever shard recorded the
// flight holds byte-identical records, so any copy is the right copy.
func (s *Server) handleFlight(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validFlightID(id) {
		writeError(w, http.StatusBadRequest, "flight id must be 64 lowercase hex characters")
		return
	}
	data, ok := s.localFlight(id)
	if !ok && !s.fleet.Standalone() {
		if b, shard, _, found := s.fleet.Flight(req.Context(), id); found {
			w.Header().Set(peerHeader, shard)
			data, ok = b, true
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no flight recorded under "+id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func validFlightID(id string) bool {
	if len(id) != 2*sha256.Size {
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
