package serve

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"powerbench/internal/fleet"
	"powerbench/internal/flight"
)

// This file is the serving side of the fleet observability plane (DESIGN.md
// §15): the peer routes one shard answers so any other shard can assemble a
// cluster-wide view, plus the public GET /v1/fleet rollup.
//
//	GET /v1/peer/traces        this shard's local trace listing
//	GET /v1/peer/traces/{id}   one stored trace document, local store only
//	GET /v1/peer/flights/{id}  one stored flight record, local store only
//	PUT /v1/peer/flights/{id}  a replicated flight record from a non-owner
//	GET /v1/peer/obs           this shard's status row + metrics snapshot
//
// The GET routes never recurse: they answer from local stores only, so a
// fan-out can never amplify into a fan-out of fan-outs. Like the peer result
// routes they live inside the cluster's trust domain and bypass the SLO
// wrapper (a routine 404 is not availability burn).

// localListing is the Federator's view of this shard's trace store — also
// what /v1/traces serves directly on a standalone daemon.
func (s *Server) localListing() fleet.Listing {
	return fleet.Listing{
		Count:  s.traces.Len(),
		Bytes:  s.traces.Bytes(),
		Traces: s.traceList(),
	}
}

// localFlight resolves a flight id from the in-memory store, falling back
// to FlightDir. Shared by the public and peer flight routes.
func (s *Server) localFlight(id string) ([]byte, bool) {
	if data, ok := s.flightRecs.Get(id); ok {
		return data, true
	}
	if s.cfg.FlightDir != "" {
		// Ids are validated hex at every call site, so the join cannot
		// escape FlightDir.
		if b, err := os.ReadFile(filepath.Join(s.cfg.FlightDir, id+".jsonl")); err == nil {
			return b, true
		}
	}
	return nil, false
}

// shardObs is this shard's self-report for the fleet rollup: the status row
// /healthz already exposes in pieces, plus the full metrics snapshot.
func (s *Server) shardObs() fleet.ShardObs {
	so := fleet.ShardObs{
		Schema: fleet.ShardObsSchema,
		ShardStatus: fleet.ShardStatus{
			Shard:    s.cluster.Self(),
			Draining: s.draining.Load(),
			Inflight: len(s.admit),
			Cache:    fleet.Occupancy{Entries: s.cache.Len(), Bytes: s.cache.Bytes()},
			Traces:   fleet.Occupancy{Entries: s.traces.Len(), Bytes: s.traces.Bytes()},
			Flights:  fleet.Occupancy{Entries: s.flightRecs.Len(), Bytes: s.flightRecs.Bytes()},
			Jobs:     s.jobsHealth(),
		},
	}
	if s.obs != nil {
		so.Metrics = s.obs.Metrics.Snapshot()
	}
	return so
}

// handleFleet serves GET /v1/fleet: the cluster-wide rollup — per-shard
// health rows, campaign totals and the merged metrics snapshot — assembled
// from whichever shard was asked.
func (s *Server) handleFleet(w http.ResponseWriter, req *http.Request) {
	body, err := marshalBody(s.fleet.Fleet(req.Context()))
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// handlePeerTraces serves this shard's local trace listing to a federating
// peer.
func (s *Server) handlePeerTraces(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(s.localListing())
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set(peerHeader, s.cluster.Self())
	writeBody(w, http.StatusOK, "", body)
}

// handlePeerTrace serves one locally stored trace document to a federating
// peer — local store only, no recursion into another fan-out.
func (s *Server) handlePeerTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validTraceID(id) {
		writeError(w, http.StatusBadRequest, "trace id must be 32 lowercase hex characters")
		return
	}
	doc, ok := s.localTrace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace retained on this shard")
		return
	}
	w.Header().Set(peerHeader, s.cluster.Self())
	writeBody(w, http.StatusOK, "", doc)
}

// handlePeerFlightGet serves one locally stored flight record to a peer
// resolving a flight id fleet-wide.
func (s *Server) handlePeerFlightGet(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validFlightID(id) {
		writeError(w, http.StatusBadRequest, "flight id must be 64 lowercase hex characters")
		return
	}
	data, ok := s.localFlight(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no flight recorded on this shard")
		return
	}
	w.Header().Set(peerHeader, s.cluster.Self())
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handlePeerFlightPut accepts a replicated flight record from the shard
// that computed a key this shard owns, mirroring the result write-back so
// forensics follow the bytes to where the ring sends readers. The payload
// must decode as valid flight JSONL — a peer is trusted, not unchecked.
func (s *Server) handlePeerFlightPut(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validFlightID(id) {
		writeError(w, http.StatusBadRequest, "flight id must be 64 lowercase hex characters")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.maxBodyBytes()))
	if err != nil {
		closeIfTooLarge(w, err)
		writeError(w, http.StatusBadRequest, "reading replicated flight: "+err.Error())
		return
	}
	recs, err := flight.Decode(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "replicated flight failed validation: "+err.Error())
		return
	}
	if len(recs) == 0 {
		writeError(w, http.StatusBadRequest, "replicated flight is empty")
		return
	}
	s.putFlight(id, body, "serve_flights_replicated_total")
	w.WriteHeader(http.StatusNoContent)
}

// handlePeerObs serves this shard's status row and metrics snapshot to the
// peer assembling a fleet overview.
func (s *Server) handlePeerObs(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(s.shardObs())
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set(peerHeader, s.cluster.Self())
	writeBody(w, http.StatusOK, "", body)
}
