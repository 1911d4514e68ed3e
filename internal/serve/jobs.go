package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"powerbench/internal/fault"
	"powerbench/internal/jobs"
)

// This file is the HTTP face of the durable campaign subsystem
// (internal/jobs): sweep submission, status, cancellation and SSE
// progress. The executor seam below is where a campaign point enters the
// same cache → singleflight → compute path interactive requests use, so
// a point completed by either side is a cache hit for the other, and one
// in flight on either side is joined, not recomputed.

// handleJobSubmit accepts a declarative sweep spec, expands and journals
// it, and answers 202 with the campaign status. Submission is idempotent
// on the spec's content address: a repeat answers 200 with the existing
// campaign. A degraded (read-only) WAL answers 503 — accepting a campaign
// whose acceptance cannot be journaled would silently drop it on the next
// restart.
func (s *Server) handleJobSubmit(w http.ResponseWriter, req *http.Request) {
	var spec jobs.SweepSpec
	if err := s.decode(w, req, &spec); err != nil {
		fail(w, err)
		return
	}
	st, created, err := s.jobs.Submit(&spec)
	if err != nil {
		var fe *jobs.FieldError
		switch {
		case errors.As(err, &fe):
			writeFieldError(w, http.StatusBadRequest, fe.Msg, fe.Field)
		case errors.Is(err, jobs.ErrReadOnly):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	body, err := marshalBody(st)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, status, "", body)
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(struct {
		Campaigns []jobs.Summary `json:"campaigns"`
	}{s.jobs.List()})
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, req *http.Request) {
	st, err := s.jobs.Status(req.PathValue("id"), req.URL.Query().Get("points") != "")
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	body, err := marshalBody(st)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// handleJobDelete cancels a live campaign or purges a terminal one — the
// natural reading of DELETE for each state.
func (s *Server) handleJobDelete(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	st, err := s.jobs.Cancel(id, "client request")
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if st.State == jobs.StateDone {
		// Already finished before the cancel landed: purge instead.
		if err := s.jobs.Purge(id); err == nil {
			writeBody(w, http.StatusOK, "", errorBodyMsg("campaign purged"))
			return
		}
	}
	body, err := marshalBody(st)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

func errorBodyMsg(msg string) []byte {
	b, _ := json.Marshal(struct {
		Status string `json:"status"`
	}{msg})
	return append(b, '\n')
}

// handleJobEvents streams campaign progress as server-sent events: one
// `event:`/`data:` pair per state transition, ending with the terminal
// campaign event. A client that connects after completion still gets the
// terminal snapshot.
func (s *Server) handleJobEvents(w http.ResponseWriter, req *http.Request) {
	ch, cancel, err := s.jobs.Subscribe(req.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// execPoint is the campaign executor. A point is served from the result
// cache, else routed to its owner shard when the ring assigns it to a
// healthy peer, else it joins or begins the key's flight through the same
// joinOrBegin → runFlight path /v1/evaluate takes — without an admission
// slot: the jobs worker pool bounds campaign concurrency, so background
// sweeps and interactive traffic cannot starve each other. cached reports
// bytes this point did not compute: a cache hit, the owner's cached
// result, a peer-served flight, or a joined one.
func (s *Server) execPoint(ctx context.Context, pt jobs.Point) ([]byte, bool, error) {
	if body, ok := s.cache.Get(pt.Key); ok {
		s.ctr.cacheHits.Inc()
		return body, true, nil
	}
	// When the ring assigns this point to a healthy peer, run it where its
	// cache entry belongs: first a cheap fetch (the owner may already have
	// it), then a full dispatch through the owner's public endpoint and
	// admission control. Any failure — owner down, saturated (429), slow —
	// falls through to local compute, whose runFlight offers the bytes
	// back to the owner, so a degraded cluster still finishes its
	// campaigns at single-node speed.
	if owner := s.cluster.Owner(pt.Key); owner != s.cluster.Self() && s.cluster.Healthy(owner) {
		if body, ok := s.cluster.FetchResult(ctx, owner, pt.Key); ok {
			s.putResult(pt.Key, body)
			return body, true, nil
		}
		reqBody, err := json.Marshal(EvaluateRequest{
			Server: pt.Server, Seed: pt.Seed, FaultProfile: pt.Profile,
		})
		if err == nil {
			if body, err := s.cluster.Dispatch(ctx, owner, "/v1/"+pt.Method, reqBody); err == nil {
				s.putResult(pt.Key, body)
				return body, false, nil
			}
		}
	}
	profile, err := fault.Parse(pt.Profile)
	if err != nil {
		return nil, false, err
	}
	f, how := s.joinOrBegin(pt.Key, s.methodFn(pt.Method, pt.Server, nil, pt.Seed, profile), &flightTask{})
	if !s.await(ctx, f) {
		return nil, false, ctx.Err()
	}
	switch {
	case f.status == http.StatusOK:
		return f.body, how == "dedup" || f.via == "peer", nil
	case how == "dedup":
		return nil, false, fmt.Errorf("shared computation failed (status %d)", f.status)
	}
	return nil, false, f.err
}

// jobsHealth returns the /healthz jobs block.
func (s *Server) jobsHealth() *jobs.Health {
	if s.jobs == nil {
		return nil
	}
	h := s.jobs.Health()
	return &h
}
