// Package serve is the network face of powerbench: an HTTP/JSON service
// ("powerbenchd") exposing the paper's evaluation pipeline as a queryable
// API, the way production power-telemetry systems serve predictions from a
// central service rather than one-shot batch runs (Sîrbu & Babaoglu's
// queried prediction models, the Cray PMDB central database; PAPERS.md).
//
// The layer is deliberately production-shaped rather than a thin mux:
//
//   - Content-addressed result cache. Responses are cached under
//     core.CanonicalHash keys — a pure function of (spec, seed, options) —
//     with LRU eviction, and a hit returns the exact bytes the miss
//     produced. The pipeline's byte-identical determinism is what makes
//     the cache sound: equal keys provably mean equal responses.
//
//   - Request dedup (singleflight). Concurrent identical requests share
//     one underlying computation; only the first runs the pipeline, the
//     rest wait on its flight and serve the same bytes. Campaign points
//     (POST /v1/jobs) take the same path — joinOrBegin → runFlight — so
//     a key computes once whether a request or a campaign asks first.
//
//   - Admission control. At most MaxInFlight computations run at once;
//     beyond that the service answers 429 with Retry-After instead of
//     queueing unboundedly. Cache hits and dedup joins bypass admission —
//     they cost microseconds and no simulation work.
//
//   - Deadlines and cancellation. Every request carries a context with a
//     deadline (service default, tightened per-request by timeout_ms); a
//     deadline that expires answers 504 and, when the last waiter gives
//     up, cancels the flight so the scheduler stops dispatching its
//     pending simulation runs (sched.Pool.RunRetry).
//
//   - Graceful shutdown. Close/Shutdown drain in-flight flights before
//     returning, so a SIGTERM never truncates a computation mid-write.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/fleet"
	"powerbench/internal/flight"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// Config sizes the service. The zero value selects sane defaults.
type Config struct {
	// Obs receives the service and pipeline telemetry (served on /metrics).
	// Nil disables telemetry.
	Obs *obs.Obs
	// Jobs is the per-request scheduler width (0 = one per CPU).
	Jobs int
	// MaxInFlight bounds concurrently computing requests; beyond it the
	// service answers 429. 0 selects GOMAXPROCS.
	MaxInFlight int
	// CacheEntries bounds the result cache (0 selects 512 entries).
	CacheEntries int
	// MaxTimeout is the ceiling on any request deadline; requests may only
	// tighten it via timeout_ms. 0 selects 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 selects 1 MiB).
	MaxBodyBytes int64
	// FlightDir, when set, persists each computation's flight records as
	// <id>.jsonl under the directory (created if missing) in addition to
	// the in-memory store behind GET /v1/flights/{id}.
	FlightDir string
	// FlightEntries bounds the in-memory flight store (0 selects 256).
	FlightEntries int
	// EnableProfiling mounts net/http/pprof under GET /debug/pprof/.
	EnableProfiling bool
	// TraceEntries bounds the in-memory trace store (0 selects 256).
	TraceEntries int
	// TraceSlow is the wall duration at or above which a trace is always
	// retained by the tail sampler (0 selects 2s).
	TraceSlow time.Duration
	// TraceSampleRate is the fraction of traces kept when no tail rule
	// (error/faulted/slow/cache-miss) applies. 0 selects 0.10; negative
	// values disable probabilistic retention entirely.
	TraceSampleRate float64
	// WALDir enables durable sweep campaigns: every POST /v1/jobs state
	// transition journals to a CRC-checked segmented WAL under this
	// directory and a restart resumes unfinished campaigns. Empty keeps
	// the campaign subsystem volatile (campaigns die with the process).
	WALDir string
	// CampaignWorkers bounds concurrently executing campaign points (0
	// selects 2) — a separate budget from MaxInFlight so background
	// sweeps and interactive traffic cannot starve each other.
	CampaignWorkers int
	// MaxCampaignPoints bounds one campaign's expansion (0 selects 10000).
	MaxCampaignPoints int
	// WALFsyncEvery is the WAL group-commit cadence (0 selects 5ms;
	// negative fsyncs every append).
	WALFsyncEvery time.Duration
	// Cluster is this shard's view of the fleet: the consistent-hash ring,
	// peer health and the peering client (DESIGN.md §14). Nil runs a
	// standalone cluster of one, which takes none of the peering paths —
	// single-node behavior is the degenerate case, not a separate code
	// path. The server owns the cluster lifecycle: New starts its health
	// loop, Close/Shutdown stop it.
	Cluster *cluster.Cluster
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 512
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 60 * time.Second
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

func (c Config) flightEntries() int {
	if c.FlightEntries > 0 {
		return c.FlightEntries
	}
	return 256
}

func (c Config) traceEntries() int {
	if c.TraceEntries > 0 {
		return c.TraceEntries
	}
	return 256
}

func (c Config) traceSlow() time.Duration {
	if c.TraceSlow > 0 {
		return c.TraceSlow
	}
	return 2 * time.Second
}

func (c Config) traceSampleRate() float64 {
	if c.TraceSampleRate != 0 {
		return c.TraceSampleRate
	}
	return 0.10
}

// Server is the powerbenchd service state.
type Server struct {
	cfg     Config
	obs     *obs.Obs
	pool    *sched.Pool
	cache   *lru[[]byte]
	flights *flightGroup
	// flightRecs stores flushed flight-record JSONL by flight id.
	flightRecs *lru[[]byte]
	// traces is the tail-sampled trace store behind GET /v1/traces.
	traces *lru[storedTrace]
	// jobs is the durable campaign manager behind POST /v1/jobs.
	jobs *jobs.Manager
	// cluster is the sharding/peering layer; never nil (standalone when
	// unconfigured).
	cluster *cluster.Cluster
	// fleet answers cluster-wide observability queries (federated traces,
	// flight read-through, the /v1/fleet rollup); never nil.
	fleet *fleet.Federator
	// recovery summarizes what the jobs WAL replayed at boot.
	recovery jobs.Recovery
	// draining flips once shutdown starts; /healthz reports it so load
	// balancers stop routing before the listener closes.
	draining atomic.Bool
	// slo tracks request outcomes for the burn-rate gauges (nil without Obs).
	slo *obs.SLOTracker
	// ctr holds the service counters the request and flight paths bump.
	ctr serviceCounters
	// admit is the admission semaphore: send acquires a compute slot,
	// receive releases it.
	admit chan struct{}
	mux   *http.ServeMux

	// baseCtx parents every flight's compute context, so a hard Close can
	// cancel outstanding work.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	// wg tracks flight goroutines for shutdown draining.
	wg sync.WaitGroup

	// noFlightReplication suppresses the flight-record half of the
	// off-owner write-back; a benchmark seam isolating its cost.
	noFlightReplication bool

	// Pipeline seams, overridable by tests.
	evalFn func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error)
	g500Fn func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Green500Result, error)
	cmpFn  func(ctx context.Context, specs []*server.Spec, seed float64, opts core.EvalOptions) (*core.Comparison, error)
	// traceStored, when set, sees every trace the store keeps with the
	// metadata it was stored with and the body a read renders.
	traceStored func(tr *tracectx.Trace, m tracectx.Meta, body []byte)
}

// New builds the service. The only failure mode is a WAL directory
// (Config.WALDir) that cannot be opened or replayed.
func New(cfg Config) (*Server, error) { return newServer(cfg, nil) }

// newServer is New with a hook that installs pipeline seams before the
// campaign workers start, so a campaign resumed from the WAL never runs a
// point through the default pipeline.
func newServer(cfg Config, seams func(*Server)) (*Server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		obs:        cfg.Obs,
		pool:       sched.New(cfg.Jobs, cfg.Obs),
		cache:      newResultCache(cfg.cacheEntries()),
		flights:    newFlightGroup(),
		flightRecs: newResultCache(cfg.flightEntries()),
		traces:     newTraceStore(cfg.traceEntries()),
		admit:      make(chan struct{}, cfg.maxInFlight()),
		baseCtx:    ctx,
		cancelBase: cancel,
		cluster:    cfg.Cluster,
		evalFn:     core.EvaluateCtx,
		g500Fn:     core.Green500Ctx,
		cmpFn:      core.CompareCtx,
	}
	if seams != nil {
		seams(s)
	}
	if s.cluster == nil {
		s.cluster = cluster.Standalone("", cfg.Obs)
	}
	s.cluster.Start()
	// The federator reads the live stores through closures, so it sees
	// exactly what the local routes serve — no second bookkeeping path.
	s.fleet = fleet.New(fleet.Config{
		Cluster:      s.cluster,
		Obs:          cfg.Obs,
		LocalTrace:   s.localTrace,
		LocalListing: s.localListing,
		LocalFlight:  s.localFlight,
		LocalStatus:  s.shardObs,
	})
	if cfg.Obs != nil {
		// The burn-rate tracker over the /v1 API routes runs at the obs
		// defaults: 99.9% availability, 99% of requests under 500 ms, 5m/1h
		// windows.
		s.slo = obs.NewSLOTracker(cfg.Obs.Metrics, obs.SLOConfig{})
		// The daemon may be handed a bare registry that never went through
		// the CLI construction path; the build-identity series must exist
		// either way (idempotent when both run).
		obs.PublishBuildInfo(cfg.Obs.Metrics)
	}
	if cfg.FlightDir != "" {
		if err := os.MkdirAll(cfg.FlightDir, 0o755); err != nil {
			s.obs.Infof("flight dir %s: %v (persistence disabled for this run)", cfg.FlightDir, err)
		}
	}
	s.obs.Gauge("serve_admission_capacity").Set(float64(cfg.maxInFlight()))
	s.ctr = newServiceCounters(s.obs)
	// The campaign manager shares the service's cache, flights and
	// pipeline seams: its executor (execPoint) checks the cache, routes
	// off-owner points to their shard, then joins or begins the key's
	// flight like any request — minus the admission slot — and WAL
	// recovery pre-warms the result cache with the journaled bodies of
	// every completed point through the same store helper.
	mgr, rec, err := jobs.Open(jobs.Config{
		Obs:             cfg.Obs,
		Dir:             cfg.WALDir,
		Workers:         cfg.CampaignWorkers,
		MaxPoints:       cfg.MaxCampaignPoints,
		FsyncEvery:      cfg.WALFsyncEvery,
		MaxPointTimeout: cfg.maxTimeout(),
		Exec:            s.execPoint,
		Warm:            s.putResult,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.jobs = mgr
	s.recovery = *rec
	mgr.Start()

	s.mux = http.NewServeMux()
	s.route("POST /v1/evaluate", "/v1/evaluate", s.handleMethod("evaluate"))
	s.route("POST /v1/green500", "/v1/green500", s.handleMethod("green500"))
	s.route("POST /v1/compare", "/v1/compare", s.handleCompare)
	s.route("GET /v1/servers", "/v1/servers", s.handleServers)
	s.route("GET /v1/flights/{id}", "/v1/flights", s.handleFlight)
	s.route("GET /v1/traces", "/v1/traces", s.handleTraces)
	s.route("GET /v1/traces/{id}", "/v1/traces", s.handleTrace)
	s.route("POST /v1/jobs", "/v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", "/v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", "/v1/jobs", s.handleJobStatus)
	s.route("DELETE /v1/jobs/{id}", "/v1/jobs", s.handleJobDelete)
	// SSE bypasses the metrics/SLO middleware: those wrappers don't
	// forward http.Flusher, and a long-lived stream would poison the
	// latency histograms anyway.
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	// The peer protocol (cache peering between shards) bypasses the SLO
	// wrapper: a peer miss answers 404 by design, and counting routine
	// misses as availability burn would poison the burn-rate gauges.
	s.mux.Handle("GET /v1/peer/results/{key}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerGet)))
	s.mux.Handle("PUT /v1/peer/results/{key}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerPut)))
	// The fleet observability routes (DESIGN.md §15): the peer side answers
	// local stores only (a fan-out never recurses), the public /v1/fleet
	// rollup is an API route like any other.
	s.mux.Handle("GET /v1/peer/traces", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerTraces)))
	s.mux.Handle("GET /v1/peer/traces/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerTrace)))
	s.mux.Handle("GET /v1/peer/flights/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerFlightGet)))
	s.mux.Handle("PUT /v1/peer/flights/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerFlightPut)))
	s.mux.Handle("GET /v1/peer/obs", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerObs)))
	s.route("GET /v1/fleet", "/v1/fleet", s.handleFleet)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.HTTPMetrics(s.obs, "/metrics", s.metricsHandler()))
	if cfg.EnableProfiling {
		// The index route is a prefix match, so the per-profile pages
		// (heap, goroutine, block, ...) resolve through it.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// serviceCounters are the service counters a request or flight bumps,
// resolved once so no request looks one up by name. Resolving them also
// pre-touches each series, so the very first scrape already exposes the
// full SLO-relevant set at zero — burn-rate and error dashboards need
// absent-vs-zero to be unambiguous.
type serviceCounters struct {
	cacheHits, cacheMisses, dedupJoined, admissionRejected,
	flightAbandoned, deadlineExpired, clientGone, compute, computeErrors,
	cacheEvictions, tracesDropped, traceEvictions *obs.Counter
}

func newServiceCounters(o *obs.Obs) serviceCounters {
	// putFlight bumps this one by name (a peer's replica counts under
	// another), so it is only pre-touched here.
	o.Counter("serve_flights_recorded_total")
	return serviceCounters{
		cacheHits:         o.Counter("serve_cache_hits_total"),
		cacheMisses:       o.Counter("serve_cache_misses_total"),
		dedupJoined:       o.Counter("serve_dedup_joined_total"),
		admissionRejected: o.Counter("serve_admission_rejected_total"),
		flightAbandoned:   o.Counter("serve_flight_abandoned_total"),
		deadlineExpired:   o.Counter("serve_deadline_expired_total"),
		clientGone:        o.Counter("serve_client_gone_total"),
		compute:           o.Counter("serve_compute_total"),
		computeErrors:     o.Counter("serve_compute_errors_total"),
		cacheEvictions:    o.Counter("serve_cache_evictions_total"),
		tracesDropped:     o.Counter("serve_traces_dropped_total"),
		traceEvictions:    o.Counter("serve_trace_evictions_total"),
	}
}

// Recovery reports what the jobs WAL replayed at boot (zero value when
// WALDir was unset or the journal was empty).
func (s *Server) Recovery() jobs.Recovery { return s.recovery }

// Jobs exposes the campaign manager (tests and the daemon's boot log).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// route registers a handler wrapped in the obs HTTP middleware under a
// fixed route label, with SLO outcome tracking on the API routes.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.Handle(pattern, obs.HTTPRoute(s.obs, label, s.slo, h))
}

// metricsHandler serves the live registry; a nil Obs still answers with an
// empty exposition so probes don't 404. Burn-rate gauges are recomputed on
// every scrape, so idle periods decay them toward zero.
func (s *Server) metricsHandler() http.Handler {
	var reg *obs.Registry
	if s.obs != nil {
		reg = s.obs.Metrics
	}
	inner := obs.PrometheusHandler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.slo.Publish()
		inner.ServeHTTP(w, req)
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: it waits for every in-flight computation to
// settle, or — if ctx expires first — cancels them (pending simulation
// runs stop dispatching; started ones finish) and then waits. The caller
// must already have stopped accepting new connections (http.Server's
// Shutdown does).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop probing peers first; /healthz now reports draining, so the
	// peers' own probes shed load off this shard symmetrically.
	s.cluster.Stop()
	start := time.Now()
	defer func() {
		s.obs.Gauge("serve_drain_seconds").Set(time.Since(start).Seconds())
	}()
	// Drain the campaign workers first: in-flight points finish and
	// journal their outcomes, then the WAL commits its checkpoint — the
	// half of the drain a restart actually depends on.
	jerr := s.jobs.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return jerr
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// Close cancels outstanding computations and waits for them to unwind.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cluster.Stop()
	s.jobs.Close()
	s.cancelBase()
	s.wg.Wait()
}

// --- request orchestration: cache → dedup → admission → compute ---

// cacheHeader is the response header reporting how the body was produced:
// "hit" (result cache), "miss" (this request computed it), or "dedup"
// (shared another request's in-flight computation).
const cacheHeader = "X-Powerbench-Cache"

// retryAfterSec is the client backoff hint on 429 responses.
const retryAfterSec = "1"

// computeFn runs one pipeline computation, appending its flight records to
// rec (stored under the request's flight id once the computation settles).
type computeFn func(ctx context.Context, rec *flight.Recorder) (any, error)

// flightTask is what a flight's beginner hands its runner: the trace the
// flight reports into, the request identity the tail sampler needs once it
// settles (with the flight id the request already derived), and whether
// the flight holds an admission slot. A request flight carries both; a
// campaign flight carries neither — it records no spans, and the jobs
// worker pool bounds campaign concurrency instead.
type flightTask struct {
	tr      *tracectx.Trace
	route   string
	flight  string
	faulted bool
	admit   bool
}

// serveComputed answers one compute request: serve from cache, else join
// or begin the key's flight under admission control, then wait for the
// flight or the request deadline, whichever first. route labels the trace's
// root span; faulted marks requests running a fault profile, which the tail
// sampler always retains. build returns the computation; it is called only
// on a miss.
func (s *Server) serveComputed(w http.ResponseWriter, req *http.Request, route, key string, faulted bool, timeoutMS int, build func() computeFn) {
	// A hit's trace retention is known before the lookup: the sampler's
	// verdict on a fast 200 hit. A hit it would drop records no trace at
	// all; its ids derive from the key exactly as a traced request's do.
	if s.sampleReason(http.StatusOK, faulted, "hit", 0, key) == "" {
		if body, ok := s.cache.Get(key); ok {
			s.ctr.cacheHits.Inc()
			s.ctr.tracesDropped.Inc()
			id := tracectx.DeriveID(key)
			setIDs(w.Header(), key, id, tracectx.DeriveSpanID(id, route))
			writeBody(w, http.StatusOK, "hit", body)
			return
		}
	}
	// The flight and trace ids are pure functions of the key, so every
	// response path (hit, miss, dedup, even 429) can advertise where the
	// forensics live — and the response traceparent (trace id + root span
	// id, both identity-derived) lets a caller chain its own spans under
	// this request before the computation has even finished.
	tr := newRequestTrace(req, route, key)
	root := tr.Root()
	fid := setIDs(w.Header(), key, tr.ID(), root.ID())
	cacheSpan := root.Child("cache")
	if body, ok := s.cache.Get(key); ok {
		s.ctr.cacheHits.Inc()
		cacheSpan.Str("result", "hit").End()
		root.End()
		writeBody(w, http.StatusOK, "hit", body)
		s.storeTrace(tr, route, key, fid, http.StatusOK, faulted, "hit", 0)
		return
	}
	s.ctr.cacheMisses.Inc()
	cacheSpan.Str("result", "miss").End()

	// Request deadline: the service ceiling, tightened by timeout_ms.
	timeout := s.cfg.maxTimeout()
	if t := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()

	f, how := s.joinOrBegin(key, build(), &flightTask{tr: tr, route: route, flight: fid, faulted: faulted, admit: true})
	if f == nil {
		// Saturated: reject now rather than queue unboundedly. The rejection
		// trace (root + cache miss + admission verdict) is always retained —
		// a 429 is an error outcome.
		s.ctr.admissionRejected.Inc()
		root.Child("admission").Str("result", "rejected").Int("capacity", cap(s.admit)).End()
		root.End()
		w.Header().Set("Retry-After", retryAfterSec)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("service saturated: %d computations in flight", cap(s.admit)))
		s.storeTrace(tr, route, key, fid, http.StatusTooManyRequests, faulted, how, 0)
		return
	}

	if !s.await(ctx, f) {
		if ctx.Err() == context.DeadlineExceeded {
			s.ctr.deadlineExpired.Inc()
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("deadline exceeded after %s", timeout))
			return
		}
		// Client went away; nothing to write.
		s.ctr.clientGone.Inc()
		return
	}
	// A flight served by cache peering advertises its origin shard; the
	// beginner's "miss" upgrades to "peer" (a joiner still joined a
	// flight, so it stays "dedup").
	if f.peer != "" {
		w.Header().Set(peerHeader, f.peer)
	}
	if how == "miss" && f.via == "peer" {
		how = "peer"
	}
	writeBody(w, f.status, how, f.body)
}

// await waits for f to settle or ctx to end, whichever comes first, and
// reports whether f settled. A waiter whose ctx ends leaves the flight,
// abandoning it when it was the last one.
func (s *Server) await(ctx context.Context, f *serveFlight) bool {
	select {
	case <-f.done:
		return true
	case <-ctx.Done():
		if s.flights.leave(f) {
			s.ctr.flightAbandoned.Inc()
		}
		return false
	}
}

// joinOrBegin attaches the caller to key's flight, starting one if none is
// live — the one entry to computation for requests and campaign points
// alike, so each key computes once whichever caller arrives first. A
// request flight (t.admit) begins only under admission control: it returns
// a nil flight when admission is saturated. how reports "dedup" for a join
// and "miss" for a fresh flight. Only the flight's beginner donates its
// trace — trace ids are content addresses, so a joiner's trace would be
// the same trace, and the beginner's records the actual computation.
func (s *Server) joinOrBegin(key string, fn computeFn, t *flightTask) (f *serveFlight, how string) {
	if f := s.flights.join(key); f != nil {
		s.ctr.dedupJoined.Inc()
		return f, "dedup"
	}
	// No live flight: a request must compute, which needs a slot.
	if t.admit {
		select {
		case s.admit <- struct{}{}:
		default:
			return nil, ""
		}
	}
	fctx, fcancel := context.WithCancel(s.baseCtx)
	f, created := s.flights.begin(key, fcancel)
	if !created {
		// Raced with another beginner; ride along and return the slot.
		fcancel()
		if t.admit {
			<-s.admit
		}
		s.ctr.dedupJoined.Inc()
		return f, "dedup"
	}
	root := t.tr.Root()
	root.Child("admission").Str("result", "admitted").Int("capacity", cap(s.admit)).End()
	root.Child("singleflight").Str("result", "begin").End()
	s.wg.Add(1)
	go s.runFlight(fctx, f, fn, t)
	return f, "miss"
}

// runFlight executes the computation, publishes the marshaled response,
// fills the cache and flight store on success, releases a request
// flight's admission slot, and hands the settled trace to the tail
// sampler. The trace is stored on the flight's outcome, not the waiter's
// — an abandoned request whose computation completed still leaves a full
// trace behind.
func (s *Server) runFlight(ctx context.Context, f *serveFlight, fn computeFn, t *flightTask) {
	defer s.wg.Done()
	inflight := s.obs.Gauge("serve_compute_inflight")
	inflight.Add(1)
	defer inflight.Add(-1)

	// Ownership check: when the ring assigns this key to a healthy peer,
	// a bounded-deadline fetch from the owner runs before any local
	// compute. The fetch shares the flight's context, so singleflight
	// abandonment (last waiter gone) cancels an in-flight peer call
	// exactly as it cancels a local computation — a slow peer cannot hold
	// a goroutine past the request deadline. Byte-identity makes the
	// splice sound: the owner's cached bytes are the bytes this shard
	// would have computed.
	owner := s.cluster.Owner(f.key)
	if owner != s.cluster.Self() && s.cluster.Healthy(owner) {
		// The peer span is categorized "cluster" so the pipeline hash — the
		// identity of the computation itself — excludes it: a stitched
		// cross-shard tree and a standalone compute hash the same pipeline.
		ps := t.tr.Root().ChildCat("peer", tracectx.CatCluster).Str("owner", owner)
		fetchStart := time.Now()
		if body, ok := s.cluster.FetchResult(ctx, owner, f.key); ok {
			ps.Str("result", "hit").End()
			t.tr.Root().End()
			s.putResult(f.key, body)
			f.via, f.peer = "peer", owner
			s.storeTrace(t.tr, t.route, f.key, t.flight, http.StatusOK, t.faulted, "peer", time.Since(fetchStart))
			s.settle(f, t, http.StatusOK, body, nil)
			return
		}
		ps.Str("result", "miss").End()
	}

	s.ctr.compute.Inc()
	compute := t.tr.Root().Child("compute")
	ctx = tracectx.ContextWith(ctx, compute)
	rec := flight.NewRecorder(0)
	start := time.Now()
	v, err := fn(ctx, rec)
	dur := time.Since(start)
	// The exemplar cross-links this latency observation to its trace, the
	// metrics-to-forensics hop (histogram bucket → exact request).
	// Campaign flights have no trace to link: a nil trace's zero id
	// observes without an exemplar.
	s.obs.Histogram("serve_compute_seconds", nil).ObserveExemplar(dur.Seconds(), t.tr.ID(), tracectx.SpanID{})

	status := http.StatusOK
	var body []byte
	switch {
	case err != nil:
		s.ctr.computeErrors.Inc()
		status = http.StatusInternalServerError
		body = errorBody(fmt.Sprintf("evaluation failed: %v", err))
		compute.Str("error", err.Error())
	default:
		body, err = marshalBody(v)
		if err != nil {
			status = http.StatusInternalServerError
			body = errorBody(fmt.Sprintf("encoding response: %v", err))
		}
	}
	compute.End()
	t.tr.Root().End()
	if status == http.StatusOK {
		s.putResult(f.key, body)
		// A request flight's id came with its task; a campaign flight
		// derives it here.
		fid := t.flight
		if fid == "" {
			fid = flightID(f.key)
		}
		var frec []byte
		if rec.Len() > 0 {
			frec = rec.Bytes()
			if dropped := rec.Dropped(); dropped > 0 {
				s.obs.Counter("serve_flight_records_dropped_total").Add(dropped)
			}
			s.putFlight(fid, frec, "serve_flights_recorded_total")
		}
		if owner != s.cluster.Self() {
			// Ownership-violating write: this shard computed a key the
			// ring assigns elsewhere (owner was down or its cache cold).
			// Forward the bytes so future readers find them where the
			// ring sends them; best-effort and off the request path. The
			// flight record rides along so forensics follow the result —
			// a reader the ring routes to the owner finds both.
			if s.noFlightReplication {
				frec = nil
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.cluster.OfferResult(owner, f.key, body)
				if len(frec) > 0 {
					s.cluster.OfferFlight(owner, fid, frec)
				}
			}()
		}
	}
	// Store the trace before waking the waiters: a client that reads the
	// X-Powerbench-Trace header off its response can fetch the trace
	// immediately, no settle/store race.
	s.storeTrace(t.tr, t.route, f.key, t.flight, status, t.faulted, "miss", dur)
	s.settle(f, t, status, body, err)
}

// settle frees a request flight's admission slot, then publishes the
// flight's outcome and wakes its waiters. The slot goes first: a
// closed-loop caller sends its next request as soon as its response
// lands, and must find its slot free again rather than race this
// goroutine's exit.
func (s *Server) settle(f *serveFlight, t *flightTask, status int, body []byte, err error) {
	if t.admit {
		<-s.admit
	}
	s.flights.settle(f, status, body, err)
}

// putResult installs a response body in the result cache — every path
// that fills it (compute, peer fetch, campaign dispatch, peer write-back,
// WAL recovery) goes through here, so the cache gauges never go stale.
func (s *Server) putResult(key string, body []byte) {
	evicted := s.cache.Put(key, body)
	s.ctr.cacheEvictions.Add(int64(evicted))
	s.obs.Gauge("serve_cache_entries").Set(float64(s.cache.Len()))
}

// --- response helpers ---

// marshalBody renders a response payload as indented JSON with a trailing
// newline (curl-friendly, and the exact bytes the cache stores).
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func errorBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return append(b, '\n')
}

// fieldErrorBody is errorBody plus the offending request field, so a
// client can programmatically map a 400 back to its input instead of
// parsing prose.
func fieldErrorBody(msg, field string) []byte {
	if field == "" {
		return errorBody(msg)
	}
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}{msg, field})
	return append(b, '\n')
}

// Header values every response shares. A response assigns the slices
// themselves, so setting them allocates nothing; their capacity equals
// their length, so a later Header.Add copies rather than writes into them.
var (
	jsonContentType = []string{"application/json"}
	cacheValues     = map[string][]string{
		"hit": {"hit"}, "miss": {"miss"}, "dedup": {"dedup"}, "peer": {"peer"},
	}
)

func writeBody(w http.ResponseWriter, status int, how string, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if how != "" {
		h[cacheHeader] = cacheValues[how]
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeBody(w, status, "", errorBody(msg))
}

func writeFieldError(w http.ResponseWriter, status int, msg, field string) {
	writeBody(w, status, "", fieldErrorBody(msg, field))
}
