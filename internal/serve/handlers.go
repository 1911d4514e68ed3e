package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/jobs"
	"powerbench/internal/server"
)

// EvaluateRequest is the body of POST /v1/evaluate and /v1/green500.
// Exactly one of Server (a built-in Table I name) or Spec (a full custom
// server.Spec) selects the system under test.
type EvaluateRequest struct {
	Server string       `json:"server,omitempty"`
	Spec   *server.Spec `json:"spec,omitempty"`
	Seed   float64      `json:"seed"`
	// FaultProfile optionally runs the hardened pipeline ("light"/"heavy";
	// ""/"none" is the clean path).
	FaultProfile string `json:"fault_profile,omitempty"`
	// TimeoutMS tightens the request deadline below the service ceiling.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// CompareRequest is the body of POST /v1/compare. Servers/Specs select the
// systems (at most one of the two; both empty compares all built-ins).
type CompareRequest struct {
	Servers      []string       `json:"servers,omitempty"`
	Specs        []*server.Spec `json:"specs,omitempty"`
	Seed         float64        `json:"seed"`
	FaultProfile string         `json:"fault_profile,omitempty"`
	TimeoutMS    int            `json:"timeout_ms,omitempty"`
}

// httpError carries a status code — and, for validation failures, the
// offending request field — through the decode/resolve helpers, with the
// error that caused it, if any.
type httpError struct {
	status int
	msg    string
	field  string
	cause  error
}

func (e *httpError) Error() string { return e.msg }

func (e *httpError) Unwrap() error { return e.cause }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// badField is badRequest with the machine-usable field name clients need
// to pinpoint which part of their sweep or evaluate body was rejected.
func badField(field, format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...), field: field}
}

// methodKey validates an EvaluateRequest's server selection and returns
// the request's cache key. A built-in server keys from its memoized
// rendering, so a by-name request resolves no spec until it misses; a
// custom spec is validated and rendered.
func methodKey(method string, er *EvaluateRequest) (string, error) {
	switch {
	case er.Server != "" && er.Spec != nil:
		return "", badField("server", "request sets both server and spec; choose one")
	case er.Spec != nil:
		if err := er.Spec.Validate(); err != nil {
			return "", badField("spec", "invalid spec: %v", err)
		}
		return core.ResultKey(method, er.Seed, er.FaultProfile, er.Spec), nil
	case er.Server != "":
		key, unknown := core.BuiltinResultKey(method, er.Seed, er.FaultProfile, er.Server)
		if unknown >= 0 {
			_, err := server.ByName(er.Server)
			return "", &httpError{status: http.StatusNotFound, msg: err.Error(), field: "server"}
		}
		return key, nil
	default:
		return "", badField("server", "request must set server (built-in name) or spec (custom)")
	}
}

// resolveProfile validates the request's fault profile name; an unknown
// profile is a client mistake (400 naming the field), never a 500.
func resolveProfile(name string) (*fault.Profile, error) {
	p, err := fault.Parse(name)
	if err != nil {
		return nil, badField("fault_profile", "%v", err)
	}
	return p, nil
}

// fail writes an error response, mapping httpError statuses and field
// names through.
func fail(w http.ResponseWriter, err error) {
	closeIfTooLarge(w, err)
	var he *httpError
	if errors.As(err, &he) {
		writeFieldError(w, he.status, he.msg, he.field)
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// closeIfTooLarge closes the connection after the response when err
// comes from a body over the size bound. http.MaxBytesReader would mark
// the connection itself, but the route middleware's ResponseWriter hides
// the server's own from it; unmarked, the server would read on through
// the rest of the body before serving the next request.
func closeIfTooLarge(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		w.Header().Set("Connection", "close")
	}
}

func (s *Server) opts(profile *fault.Profile, rec *flight.Recorder) core.EvalOptions {
	return core.EvalOptions{Obs: s.obs, Pool: s.pool, Fault: profile, Flight: rec}
}

// handleMethod serves one single-server method route (POST /v1/evaluate
// and /v1/green500; method is the path's last element).
func (s *Server) handleMethod(method string) http.HandlerFunc {
	route := "/v1/" + method
	return func(w http.ResponseWriter, req *http.Request) {
		var er EvaluateRequest
		if err := s.decodeRequest(w, req, &er); err != nil {
			fail(w, err)
			return
		}
		key, err := methodKey(method, &er)
		if err != nil {
			fail(w, err)
			return
		}
		profile, err := resolveProfile(er.FaultProfile)
		if err != nil {
			fail(w, err)
			return
		}
		s.serveComputed(w, req, route, key, profile.Active(), er.TimeoutMS, func() computeFn {
			return s.methodFn(method, er.Server, er.Spec, er.Seed, profile)
		})
	}
}

// methodFn returns the computation behind a single-server method: the one
// closure both its HTTP route and a campaign point hand to joinOrBegin. It
// runs spec, or else the built-in server name, which the request's key
// already resolved.
func (s *Server) methodFn(method, name string, spec *server.Spec, seed float64, profile *fault.Profile) computeFn {
	return func(ctx context.Context, rec *flight.Recorder) (any, error) {
		sp := spec
		if sp == nil {
			var err error
			if sp, err = server.ByName(name); err != nil {
				return nil, err
			}
		}
		if method == "green500" {
			return s.g500Fn(ctx, sp, seed, s.opts(profile, rec))
		}
		return s.evalFn(ctx, sp, seed, s.opts(profile, rec))
	}
}

func (s *Server) handleCompare(w http.ResponseWriter, req *http.Request) {
	var cr CompareRequest
	if err := s.decodeRequest(w, req, &cr); err != nil {
		fail(w, err)
		return
	}
	key, err := compareKey(&cr)
	if err != nil {
		fail(w, err)
		return
	}
	profile, err := resolveProfile(cr.FaultProfile)
	if err != nil {
		fail(w, err)
		return
	}
	// The computation captures copies of the request's fields, not cr,
	// which stays on the stack.
	servers, specs, seed := cr.Servers, cr.Specs, cr.Seed
	s.serveComputed(w, req, "/v1/compare", key, profile.Active(), cr.TimeoutMS, func() computeFn {
		return func(ctx context.Context, rec *flight.Recorder) (any, error) {
			sel := specs
			if len(sel) == 0 {
				var err error
				if sel, err = builtinSpecs(servers); err != nil {
					return nil, err
				}
			}
			return s.cmpFn(ctx, sel, seed, s.opts(profile, rec))
		}
	})
}

// allServers names every built-in server in the paper's order: the
// selection of a comparison that names none.
var allServers = server.Names()

// compareKey validates a CompareRequest's selection and returns the
// request's cache key. Named and default (all built-in) selections key from
// the memoized renderings; custom specs are validated and rendered.
func compareKey(cr *CompareRequest) (string, error) {
	if len(cr.Servers) > 0 && len(cr.Specs) > 0 {
		return "", badField("servers", "request sets both servers and specs; choose one")
	}
	if len(cr.Specs) > 0 {
		for i, sp := range cr.Specs {
			if sp == nil {
				return "", badField(fmt.Sprintf("specs[%d]", i), "specs contains a null entry")
			}
			if err := sp.Validate(); err != nil {
				return "", badField(fmt.Sprintf("specs[%d]", i), "invalid spec: %v", err)
			}
		}
		return core.ResultKey("compare", cr.Seed, cr.FaultProfile, cr.Specs...), nil
	}
	names := cr.Servers
	if len(names) == 0 {
		names = allServers
	}
	key, unknown := core.BuiltinResultKey("compare", cr.Seed, cr.FaultProfile, names...)
	if unknown >= 0 {
		_, err := server.ByName(names[unknown])
		return "", &httpError{status: http.StatusNotFound, msg: err.Error(), field: fmt.Sprintf("servers[%d]", unknown)}
	}
	return key, nil
}

// builtinSpecs returns fresh specs of the named built-in servers; no
// names selects all of them.
func builtinSpecs(names []string) ([]*server.Spec, error) {
	if len(names) == 0 {
		return server.All(), nil
	}
	out := make([]*server.Spec, len(names))
	for i, name := range names {
		sp, err := server.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

func (s *Server) handleServers(w http.ResponseWriter, _ *http.Request) {
	body, err := marshalBody(server.All())
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// storeOccupancy reports one bounded store's fill level in /healthz.
type storeOccupancy struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// healthResponse is the /healthz body: liveness plus the occupancy numbers
// probes and the future cluster-membership layer read from one endpoint.
type healthResponse struct {
	Status   string         `json:"status"`
	Draining bool           `json:"draining"`
	Inflight int            `json:"inflight"`
	Cache    storeOccupancy `json:"cache"`
	Traces   storeOccupancy `json:"traces"`
	// Cluster is the sharding layer's block: shard identity, ring size,
	// per-peer health states and the peer-fetch hit ratio. Present on
	// every node — a standalone daemon reports a cluster of one — so
	// probes and peers parse one stable shape.
	Cluster cluster.Health `json:"cluster"`
	// Jobs is the campaign subsystem's block: queue depth, active
	// campaigns, WAL segment count and the read-only degradation flag.
	Jobs *jobs.Health `json:"jobs,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthResponse{
		Status:   "ok",
		Draining: s.draining.Load(),
		Inflight: len(s.admit),
		Cache:    storeOccupancy{Entries: s.cache.Len(), Bytes: s.cache.Bytes()},
		Traces:   storeOccupancy{Entries: s.traces.Len(), Bytes: s.traces.Bytes()},
		Cluster:  s.cluster.Health(),
		Jobs:     s.jobsHealth(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	if h.Jobs != nil && h.Jobs.ReadOnly {
		h.Status = "degraded"
	}
	body, err := marshalBody(h)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}
