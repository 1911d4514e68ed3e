package serve

import (
	"io"
	"net/http"
	"strings"
)

// This file is the serving side of the cluster peer protocol (DESIGN.md
// §14): the internal routes one shard answers for another. The protocol is
// two verbs over one resource — a content-addressed result keyed by the
// same canonical cache key every other subsystem uses:
//
//	GET /v1/peer/results/{key}   the owner's side of a peer fetch
//	PUT /v1/peer/results/{key}   a forwarded ownership-violating write
//
// GET never computes: it answers from the result cache, or — when the key
// is being computed right now — waits on the live flight within the
// caller's (bounded) deadline. The requesting shard falls back to local
// compute on a 404, so an owner's miss costs one round trip, never a
// second computation. PUT accepts the exact response bytes a non-owner
// computed; byte-identity is what makes accepting them safe — the bytes
// are the same pure function of the key the owner would have produced.
//
// The routes live inside the trust domain of the cluster (same operator,
// same binary, same config); they are not exposed to end clients by
// contract, not by authentication.

// peerHeader names the response header reporting which shard's cache
// served the bytes (set on peer-served responses, and on the peer route
// itself so forensics can attribute a body to a shard).
const peerHeader = "X-Powerbench-Peer"

// validPeerKey bounds what the peer routes accept: a known method prefix,
// a '|' separator and a hex (or '+'-chained hex, for compare) suffix —
// the exact shape of every key core.ResultKey builds. Anything else is a
// confused or hostile caller, answered 400 without touching the cache.
func validPeerKey(key string) bool {
	if len(key) > 4096 {
		return false
	}
	method, rest, ok := strings.Cut(key, "|")
	if !ok || rest == "" {
		return false
	}
	switch method {
	case "evaluate", "green500", "compare":
	default:
		return false
	}
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '+' {
			return false
		}
	}
	return true
}

// handlePeerGet serves a peer fetch: cached bytes, a wait on the key's
// live flight, or 404. The wait is bounded by the requesting shard's
// deadline (it dialed with a peer-timeout context), so a long compute on
// this side answers the fetch late at worst, never wedges it.
func (s *Server) handlePeerGet(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	if !validPeerKey(key) {
		writeError(w, http.StatusBadRequest, "malformed peer result key")
		return
	}
	s.obs.Counter("serve_peer_requests_total").Inc()
	w.Header().Set(peerHeader, s.cluster.Self())
	if body, ok := s.cache.Get(key); ok {
		s.obs.Counter("serve_peer_served_total").Inc()
		writeBody(w, http.StatusOK, "", body)
		return
	}
	// The key may be computing right now (this shard owns it, so its
	// singleflight is the cluster-wide point of convergence): ride the
	// flight rather than answering a miss that would trigger a duplicate
	// computation one hop away.
	if f := s.flights.join(key); f != nil && s.await(req.Context(), f) && f.status == http.StatusOK {
		s.obs.Counter("serve_peer_served_total").Inc()
		writeBody(w, http.StatusOK, "", f.body)
		return
	}
	writeError(w, http.StatusNotFound, "result not cached on this shard")
}

// handlePeerPut accepts a forwarded result from a non-owning shard and
// installs it in the cache under its content address.
func (s *Server) handlePeerPut(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("key")
	if !validPeerKey(key) {
		writeError(w, http.StatusBadRequest, "malformed peer result key")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, s.cfg.maxBodyBytes()))
	if err != nil {
		closeIfTooLarge(w, err)
		writeError(w, http.StatusBadRequest, "reading forwarded result: "+err.Error())
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, "forwarded result is empty")
		return
	}
	s.putResult(key, body)
	s.obs.Counter("serve_peer_accepted_total").Inc()
	w.WriteHeader(http.StatusNoContent)
}
