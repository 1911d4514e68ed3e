package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/serve"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// conns is the number of keep-alive connections (and closed-loop callers)
// of the daemon workloads.
const conns = 2

// daemon is an in-process powerbenchd behind a loopback listener. The
// listener's handler wraps the service's exported Handler so a traced pass
// can time the server side of each request from outside the service.
type daemon struct {
	svc *serve.Server
	o   *obs.Obs
	hs  *httptest.Server
	// idle holds the open keep-alive connections; at most conns exist.
	idle chan *conn
	open atomic.Int32
	// timing turns on the root-wall bookkeeping for traced passes.
	timing        atomic.Bool
	rootNS, rootN atomic.Int64
}

// startDaemon builds the service with the registry and tracer powerbenchd
// builds, on cfg's sizing (zero values are the daemon's defaults) with one
// exception: admission capacity is one above the connection count. A
// flight frees its admission slot only after it has woken its waiter, so at
// the default capacity (GOMAXPROCS, 2 here) a closed-loop caller's next
// request can find its own finished flight still holding the slot and be
// refused with a 429.
func startDaemon(cfg serve.Config) (*daemon, error) {
	d := &daemon{o: (&obs.CLI{Quiet: true}).NewObs(io.Discard, io.Discard), idle: make(chan *conn, conns)}
	cfg.Obs = d.o
	cfg.MaxInFlight = conns + 1
	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	d.svc = svc
	h := svc.Handler()
	d.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Only the workload's POSTs are timed, not trace or metrics reads.
		if !d.timing.Load() || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d.rootNS.Add(int64(time.Since(t0)))
		d.rootN.Add(1)
	}))
	return d, nil
}

func (d *daemon) close() {
	for d.open.Load() > 0 {
		c := <-d.idle
		c.nc.Close()
		d.open.Add(-1)
	}
	d.hs.Close()
	d.svc.Close()
}

// conn is one keep-alive HTTP/1.1 connection, used by one caller at a
// time. The caller writes the request and reads the response itself, with
// no transport goroutines between it and the socket, so the scheduler has
// fewer hand-offs to vary from run to run.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf bytes.Buffer
}

// acquire takes an idle connection, dialing one while fewer than conns
// are open.
func (d *daemon) acquire() (*conn, error) {
	select {
	case c := <-d.idle:
		return c, nil
	default:
	}
	if d.open.Add(1) > conns {
		d.open.Add(-1)
		return <-d.idle, nil
	}
	nc, err := net.Dial("tcp", d.hs.Listener.Addr().String())
	if err != nil {
		d.open.Add(-1)
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// release returns c to the idle set, or closes it after a failed exchange.
func (d *daemon) release(c *conn, ok bool) {
	if !ok {
		c.nc.Close()
		d.open.Add(-1)
		return
	}
	d.idle <- c
}

// reply is one HTTP response as the checks need it.
type reply struct {
	status int
	how    string // X-Powerbench-Cache
	trace  string // X-Powerbench-Trace
	body   []byte
}

// exchange sends one request on a pooled connection and hands the reply
// to fn before the connection goes back; the reply's body is only valid
// inside fn.
func (d *daemon) exchange(method, path string, body []byte, fn func(r reply)) error {
	c, err := d.acquire()
	if err != nil {
		return err
	}
	req, err := http.NewRequest(method, d.hs.URL+path, bytes.NewReader(body))
	if err == nil {
		err = req.Write(c.bw)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, req)
	}
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		fn(reply{resp.StatusCode, resp.Header.Get("X-Powerbench-Cache"), resp.Header.Get("X-Powerbench-Trace"), c.buf.Bytes()})
	}
	d.release(c, err == nil && !resp.Close)
	return err
}

// do is exchange returning a reply whose body the caller owns.
func (d *daemon) do(method, path string, body []byte) (reply, error) {
	var out reply
	err := d.exchange(method, path, body, func(r reply) {
		out = r
		out.body = append([]byte(nil), r.body...)
	})
	return out, err
}

// metrics scrapes and parses GET /metrics.
func (d *daemon) metrics() (series, error) {
	r, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	return parseProm(string(r.body))
}

// traceDoc fetches a retained request trace.
func (d *daemon) traceDoc(id string) (*tracectx.Doc, error) {
	r, err := d.do(http.MethodGet, "/v1/traces/"+id, nil)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/traces/%s: status %d", id, r.status)
	}
	var doc tracectx.Doc
	return &doc, json.Unmarshal(r.body, &doc)
}

// request is one generated daemon request.
type request struct {
	class   string // evaluate, green500, evaluate-light or compare
	path    string
	server  string // empty for compare (all built-in servers)
	seed    float64
	profile string
	body    []byte
}

func newRequest(class, name string, seed float64) request {
	r := request{class: class, server: name, seed: seed}
	var v any
	switch class {
	case "compare":
		r.path = "/v1/compare"
		v = serve.CompareRequest{Seed: seed}
	case "green500":
		r.path = "/v1/green500"
		v = serve.EvaluateRequest{Server: name, Seed: seed}
	case "green500-light":
		r.path, r.profile = "/v1/green500", "light"
		v = serve.EvaluateRequest{Server: name, Seed: seed, FaultProfile: "light"}
	case "compare-light":
		r.path, r.profile = "/v1/compare", "light"
		v = serve.CompareRequest{Seed: seed, FaultProfile: "light"}
	case "evaluate-light":
		r.path, r.profile = "/v1/evaluate", "light"
		v = serve.EvaluateRequest{Server: name, Seed: seed, FaultProfile: "light"}
	default:
		r.path = "/v1/evaluate"
		v = serve.EvaluateRequest{Server: name, Seed: seed}
	}
	r.body, _ = json.Marshal(v) // plain structs always marshal
	return r
}

// direct computes the request in-process through core and marshals it the
// way the daemon marshals a response body.
func (r request) direct(ctx context.Context) ([]byte, error) {
	profile, err := fault.Parse(r.profile)
	if err != nil {
		return nil, err
	}
	opts := core.EvalOptions{Pool: sched.New(0, nil), Fault: profile}
	var v any
	switch r.path {
	case "/v1/compare":
		v, err = core.CompareCtx(ctx, server.All(), r.seed, opts)
	default:
		spec, serr := server.ByName(r.server)
		if serr != nil {
			return nil, serr
		}
		if r.path == "/v1/green500" {
			v, err = core.Green500Ctx(ctx, spec, r.seed, opts)
		} else {
			v, err = core.EvaluateCtx(ctx, spec, r.seed, opts)
		}
	}
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// finiteScore reports whether a response body carries a finite score:
// Score (evaluate), PPW (green500) or every Ours entry (compare).
func finiteScore(body []byte) bool {
	var v struct {
		Score *float64
		PPW   *float64
		Ours  []float64
	}
	if json.Unmarshal(body, &v) != nil {
		return false
	}
	ok := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	switch {
	case v.Score != nil:
		return ok(*v.Score)
	case v.PPW != nil:
		return ok(*v.PPW)
	case len(v.Ours) > 0:
		for _, f := range v.Ours {
			if !ok(f) {
				return false
			}
		}
		return true
	}
	return false
}

// loopStats is what the closed-loop callers of one pass gather.
type loopStats struct {
	mu       sync.Mutex
	lat      []float64
	ops      int
	failed   int
	problems []string
	// perSec counts the ops completed in each whole second of the window.
	perSec []int
}

func (s *loopStats) fail(format string, args ...any) {
	s.mu.Lock()
	s.failed++
	if len(s.problems) < 10 {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// closedLoop runs conns callers until the deadline; each takes the next
// op index and waits for its reply before taking another. call returns
// the op's latency, or false when the op failed (it reports the failure).
func closedLoop(dur float64, next *atomic.Int64, st *loopStats, call func(k int) (time.Duration, bool)) {
	start := time.Now()
	window := time.Duration(dur * float64(time.Second))
	st.perSec = make([]int, int(window/time.Second))
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func() {
			defer wg.Done()
			var lat []float64
			perSec := make([]int, len(st.perSec))
			ops := 0
			for time.Since(start) < window {
				k := int(next.Add(1) - 1)
				d, ok := call(k)
				ops++
				if ok {
					lat = append(lat, float64(d)/1e6)
				}
				if s := int(time.Since(start) / time.Second); s < len(perSec) {
					perSec[s]++
				}
			}
			st.mu.Lock()
			st.lat = append(st.lat, lat...)
			st.ops += ops
			for i, n := range perSec {
				st.perSec[i] += n
			}
			st.mu.Unlock()
		}()
	}
	wg.Wait()
}

// perSecNote prints the per-second completion counts, which show drift
// within a run.
func (s *loopStats) perSecNote(res *result) {
	res.note("ops per second: %v", s.perSec)
}

func (s *loopStats) into(res *result) {
	res.attempted += s.ops
	res.failed += s.failed
	res.problems = append(res.problems, s.problems...)
}

// serveCounters sets the serve-layer per-layer metrics from /metrics deltas
// over ops requests.
func serveCounters(res *result, c series, ops int) {
	hits, misses := c.family("serve_cache_hits_total"), c.family("serve_cache_misses_total")
	res.ratio("serve.cache_hit_ratio", hits, hits+misses, "hits", "requests")
	res.ratio("serve.rejected_ratio", c.family("serve_admission_rejected_total"), hits+misses, "rejected", "requests")
	res.ratio("serve.evictions_per_op", c.family("serve_cache_evictions_total"), float64(ops), "evictions", "ops")
	res.ratio("serve.traces_stored_per_op", c.family("serve_traces_stored_total"), float64(ops), "traces stored", "ops")
}

// rootAndTransport sets serve.root_ms (server handler wall, timed around
// the service's Handler) and serve.transport_ms (client round trip minus
// that wall), both as means per request.
func (d *daemon) rootAndTransport(res *result, lat []float64) {
	if n := d.rootN.Load(); n > 0 {
		root := float64(d.rootNS.Load()) / float64(n) / 1e6
		rtt := mean(lat)
		res.layer["serve.root_ms"] = root
		res.layer["serve.transport_ms"] = rtt - root
		res.note("serve.transport_ms = %.4f (client round trip %.4f ms - server root %.4f ms, %d requests)", rtt-root, rtt, root, n)
	}
}

// pass runs one closed-loop window of conns callers. A traced pass also
// times the server side of each POST and returns the /metrics deltas over
// the window.
func (d *daemon) pass(dur float64, next *atomic.Int64, traced bool, call func(st *loopStats, k int) (time.Duration, bool)) (*loopStats, windowStats, series, error) {
	st := &loopStats{}
	var before series
	if traced {
		var err error
		if before, err = d.metrics(); err != nil {
			return nil, windowStats{}, nil, err
		}
		d.timing.Store(true)
	}
	w := openWindow()
	closedLoop(dur, next, st, func(k int) (time.Duration, bool) { return call(st, k) })
	ws := w.close()
	d.timing.Store(false)
	if !traced {
		return st, ws, nil, nil
	}
	after, err := d.metrics()
	return st, ws, delta(before, after), err
}

// --- serve-hit ---

// hitKeys are the warm set: 96 evaluate, 24 green500 and 8 compare bodies
// over the three servers.
func hitKeys(seed int64) []request {
	base := float64(seed%100000) * 1000
	var keys []request
	for i := 0; i < 96; i++ {
		keys = append(keys, newRequest("evaluate", serverNames[i%3], base+1+float64(i/3)))
	}
	for i := 0; i < 24; i++ {
		keys = append(keys, newRequest("green500", serverNames[i%3], base+500+float64(i/3)))
	}
	for i := 0; i < 8; i++ {
		keys = append(keys, newRequest("compare", "", base+700+float64(i)))
	}
	return keys
}

// warm sends every request once over conns connections and returns the
// bodies; each must be a computed 200.
func (d *daemon) warm(reqs []request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	errs := make([]error, conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(conns)
	for c := 0; c < conns; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r, err := d.do(http.MethodPost, reqs[i].path, reqs[i].body)
				if err == nil && (r.status != http.StatusOK || r.how != "miss") {
					err = fmt.Errorf("warm-up %s %s: status %d cache %q", reqs[i].path, reqs[i].body, r.status, r.how)
				}
				if err != nil {
					errs[c] = err
					return
				}
				bodies[i] = r.body
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// setupDaemon repeats the workload's set-up setupRepeats times from cold
// memos (what a freshly started daemon pays) and keeps the last daemon.
// mkcfg is called once per repeat, so each can get fresh directories.
func setupDaemon(mkcfg func() serve.Config, prepare func(d *daemon) error) (*daemon, []float64, error) {
	var d *daemon
	var times []float64
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			d.close()
		}
		resetMemos()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(mkcfg()); err != nil {
			return nil, nil, err
		}
		if err := prepare(d); err != nil {
			d.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, times, nil
}

func runServeHit(cfg config) (*result, error) {
	res := newResult()
	keys := hitKeys(cfg.seed)
	var want [][]byte
	d, setup, err := setupDaemon(func() serve.Config { return serve.Config{} }, func(d *daemon) error {
		var err error
		want, err = d.warm(keys)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(keys))
	call := func(st *loopStats, k int) (time.Duration, bool) {
		i := perm[k%len(perm)]
		ok := false
		t0 := time.Now()
		err := d.exchange(http.MethodPost, keys[i].path, keys[i].body, func(r reply) {
			ok = r.status == http.StatusOK && r.how == "hit" && bytes.Equal(r.body, want[i])
		})
		lat := time.Since(t0)
		if err != nil || !ok {
			st.fail("request %d: not a byte-identical 200 hit (err %v)", k, err)
			return lat, false
		}
		return lat, true
	}
	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	var next atomic.Int64
	st, ws, _, err := d.pass(dur, &next, false, call)
	if err != nil {
		return nil, err
	}
	st.into(res)
	res.fillEndToEnd(setup, st.ops, float64(st.ops)/ws.wall.Seconds(), ws, st.lat)
	st.perSecNote(res)
	if !cfg.trace {
		return res, nil
	}
	tst, tws, c, err := d.pass(dur, &next, true, call)
	if err != nil {
		return nil, err
	}
	tst.into(res)
	serveCounters(res, c, tst.ops)
	d.rootAndTransport(res, tst.lat)
	res.layer["runtime.gc_cycles_per_op"] = float64(tws.gcs) / float64(tst.ops)
	res.layer["bench.trace_overhead_pct"] = (mean(tst.lat)/mean(st.lat) - 1) * 100
	return res, nil
}

// --- serve-miss ---

// missRequest is the k-th request of serve-miss: a fixed 20-request cycle
// of 14 evaluate (servers rotating), 3 green500, 2 evaluate under the
// light fault profile and 1 compare of all three servers. Every request
// has its own seed, so no key repeats.
func missRequest(base float64, k int) request {
	pos, cyc := k%20, k/20
	seed := base + 1 + float64(k)
	switch {
	case pos < 14:
		return newRequest("evaluate", serverNames[(cyc*14+pos)%3], seed)
	case pos < 17:
		return newRequest("green500", serverNames[pos-14], seed)
	case pos < 19:
		return newRequest("evaluate-light", serverNames[(cyc*2+pos-17)%3], seed)
	}
	return newRequest("compare", "", seed)
}

// missWarmups is one request per method x server x profile, with seeds
// the timed requests never use; they fill the profile memos.
func missWarmups(base float64) []request {
	var reqs []request
	seed := base + 90000
	for _, class := range []string{"evaluate", "green500", "evaluate-light", "green500-light"} {
		for _, name := range serverNames {
			reqs = append(reqs, newRequest(class, name, seed))
			seed++
		}
	}
	reqs = append(reqs, newRequest("compare", "", seed), newRequest("compare-light", "", seed+1))
	return reqs
}

func runServeMiss(cfg config) (*result, error) {
	res := newResult()
	base := float64(cfg.seed%10000) * 100000
	d, setup, err := setupDaemon(func() serve.Config { return serve.Config{} }, func(d *daemon) error {
		_, err := d.warm(missWarmups(base))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	var mu sync.Mutex
	canary := map[string]request{}
	canaryBody := map[string][]byte{}
	var docs []*tracectx.Doc
	var docReqs []request
	var next atomic.Int64
	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	pass := func(traced bool) (*loopStats, windowStats, series, error) {
		return d.pass(dur, &next, traced, func(st *loopStats, k int) (time.Duration, bool) {
			rq := missRequest(base, k)
			t0 := time.Now()
			r, err := d.do(http.MethodPost, rq.path, rq.body)
			lat := time.Since(t0)
			if err != nil || r.status != http.StatusOK || r.how != "miss" || !finiteScore(r.body) {
				st.fail("request %d %s: err %v status %d cache %q", k, rq.body, err, r.status, r.how)
				return lat, false
			}
			var doc *tracectx.Doc
			if traced {
				if doc, err = d.traceDoc(r.trace); err != nil {
					st.fail("request %d: %v", k, err)
				}
			}
			mu.Lock()
			canary[rq.class], canaryBody[rq.class] = rq, r.body
			if doc != nil {
				docs = append(docs, doc)
				docReqs = append(docReqs, rq)
			}
			mu.Unlock()
			return lat, true
		})
	}
	st, ws, _, err := pass(false)
	if err != nil {
		return nil, err
	}
	st.into(res)
	res.fillEndToEnd(setup, st.ops, float64(st.ops)/ws.wall.Seconds(), ws, st.lat)
	st.perSecNote(res)
	checkCanaries(d, res, canary, canaryBody)
	if !cfg.trace {
		return res, nil
	}
	tst, tws, c, err := pass(true)
	if err != nil {
		return nil, err
	}
	tst.into(res)
	serveCounters(res, c, tst.ops)
	res.fillCounters(c, tst.ops)
	d.rootAndTransport(res, tst.lat)
	var times spanTimes
	for _, doc := range docs {
		times.add(doc)
	}
	times.fill(res)
	profileShare(res, docs, docReqs)
	res.layer["runtime.gc_cycles_per_op"] = float64(tws.gcs) / float64(tst.ops)
	res.layer["bench.trace_overhead_pct"] = (mean(tst.lat)/mean(st.lat) - 1) * 100
	return res, nil
}

// checkCanaries verifies the last response of each request class against
// a direct core computation marshaled the daemon's way, then re-sends it
// and expects the identical bytes back as a cache hit.
func checkCanaries(d *daemon, res *result, canary map[string]request, body map[string][]byte) {
	for _, class := range []string{"evaluate", "green500", "evaluate-light", "compare"} {
		rq, ok := canary[class]
		if !ok {
			res.problem("canary %s: no successful request of this class in the window", class)
			continue
		}
		want, err := rq.direct(context.Background())
		switch {
		case err != nil:
			res.problem("canary %s: direct computation: %v", class, err)
		case !bytes.Equal(want, body[class]):
			res.problem("canary %s %s: served body differs from a direct core computation", class, rq.body)
		}
		r, err := d.do(http.MethodPost, rq.path, rq.body)
		if err != nil || r.status != http.StatusOK || r.how != "hit" || !bytes.Equal(r.body, body[class]) {
			res.problem("canary %s: re-send was not an identical hit (err %v status %d cache %q)", class, err, r.status, r.how)
		}
	}
	res.note("canaries checked: evaluate, green500, evaluate-light, compare")
}

// profileShare sets cache.profile_ms on serve-miss: the pmu collect time
// of the last 20 traced requests minus the same requests re-run in-process
// with the memos as they are. The memos are warm, so it should be near 0.
func profileShare(res *result, docs []*tracectx.Doc, reqs []request) {
	if len(docs) > 20 {
		docs, reqs = docs[len(docs)-20:], reqs[len(reqs)-20:]
	}
	var served, rerun float64
	n := 0
	for i, rq := range reqs {
		tr := tracectx.New(tracectx.DeriveID(fmt.Sprintf("perfbench-rerun-%d", i)), "perfbench", "bench")
		if _, err := rq.direct(tracectx.ContextWith(context.Background(), tr.Root())); err != nil {
			continue
		}
		tr.Root().End()
		served += pmuMicros(docs[i])
		rerun += pmuMicros(tr.Export())
		n++
	}
	if n == 0 {
		return
	}
	v := (served - rerun) / float64(n) / 1000
	res.layer["cache.profile_ms"] = v
	res.note("cache.profile_ms = %.4f (pmu collect served %.4f ms - re-run %.4f ms, %d requests)", v, served/float64(n)/1000, rerun/float64(n)/1000, n)
}
