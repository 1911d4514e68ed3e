// Command loadgen hammers a running powerbenchd with concurrent identical
// or varied requests, gmeter-style, and reports throughput, latency
// percentiles and the daemon's cache behavior. It is the measurement
// client for the serve layer: cache-hit traffic exercises the LRU path,
// -vary-seeds forces misses through admission control, and the status
// histogram makes 429/504 behavior visible under overload.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 [-endpoint /v1/evaluate]
//	        [-server name] [-seed n] [-body json] [-n 1000] [-c 8]
//	        [-vary-seeds] [-no-warm] [-timeout d] [-slow n]
//	loadgen -targets s0=http://h:7411,s1=http://h:7412,s2=http://h:7413
//	        [-route rr|affinity] [...]
//	loadgen -url http://127.0.0.1:8080 -campaign sweep.json [-poll d]
//
// -targets spreads the run over a powerbenchd cluster. Each entry is
// id=url (bare urls work too; the id then defaults to the url). -route rr
// rotates requests across the targets; -route affinity computes each
// request's canonical cache key and sends it to the shard the cluster's
// consistent-hash ring assigns it to, so every request lands where its
// cache entry lives (the ids must match the daemons' -shard-id values). A
// transport error fails over to the next target, so killing one shard
// mid-run costs latency, not failed requests; a rerouted request is
// counted once, at the target that answered it, with a failover
// annotation (the per-target "rerouted-here" column), so per-target
// request counts always sum to -n. The digest gains a per-target block
// and a cluster-wide cache split including peer-served responses.
//
// By default one untimed warm-up request populates the daemon's cache so
// the timed run measures steady-state (cache-hit) serving; -no-warm and
// -vary-seeds measure the compute path instead. The summary ends with the
// trace ids of the -slow slowest responses plus every non-200, ready to
// paste into `powerbench trace show <url>/v1/traces/<id>`.
//
// -campaign switches loadgen into sweep mode: the JSON sweep spec (a file
// path, or "-" for stdin) is submitted to POST /v1/jobs and watched until
// it reaches a terminal state, printing progress as points complete. The
// final digest includes the daemon's /healthz jobs block (queue depth,
// active campaigns, WAL segments, read-only flag) in both modes.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
)

type result struct {
	status   int // 0 = transport error on every candidate target
	cache    string
	trace    string // X-Powerbench-Trace response header
	peer     string // X-Powerbench-Peer response header
	target   string // shard id that answered
	failover bool   // a dead target was skipped to get this answer
	latency  time.Duration
}

// target is one cluster member the generator can dial.
type target struct {
	id, url string
}

// parseTargets parses -targets: comma-separated id=url entries (a bare url
// is its own id). Empty falls back to the single -url target.
func parseTargets(v, fallback string) ([]target, error) {
	if v == "" {
		return []target{{id: "", url: strings.TrimSuffix(fallback, "/")}}, nil
	}
	var out []target
	seen := map[string]bool{}
	for _, entry := range strings.Split(v, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, found := strings.Cut(entry, "=")
		if !found {
			id, url = entry, entry
		}
		if id == "" || url == "" {
			return nil, fmt.Errorf("-targets entry %q is not id=url", entry)
		}
		if seen[id] {
			return nil, fmt.Errorf("-targets lists shard id %q twice", id)
		}
		seen[id] = true
		out = append(out, target{id: id, url: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-targets lists no targets")
	}
	return out, nil
}

// router orders the candidate targets for one request: the routing
// policy's primary first, then the rest for transport-error failover.
type router struct {
	targets []target
	ring    *cluster.Ring // nil in round-robin mode
}

func newRouter(targets []target, mode string) (*router, error) {
	r := &router{targets: targets}
	switch mode {
	case "rr":
	case "affinity":
		ids := make([]string, len(targets))
		for i, t := range targets {
			ids[i] = t.id
		}
		r.ring = cluster.NewRing(ids, 0)
	default:
		return nil, fmt.Errorf("-route %q (want rr or affinity)", mode)
	}
	return r, nil
}

// order returns target indexes for request i with affinity key key.
func (r *router) order(i int, key string) []int {
	n := len(r.targets)
	start := i % n
	if r.ring != nil {
		owner := r.ring.Owner(key)
		for idx, t := range r.targets {
			if t.id == owner {
				start = idx
				break
			}
		}
	}
	out := make([]int, n)
	for j := range out {
		out[j] = (start + j) % n
	}
	return out
}

// affinityKey reproduces the daemon's canonical cache key for a generated
// evaluate/green500 body, so -route affinity sends each request to the
// shard that owns its cache entry. Raw -body payloads and other endpoints
// fall back to a body hash: still a stable target per request, just not
// cache-aligned.
func affinityKey(endpoint, rawBody, serverName string, seed float64) string {
	method := strings.TrimPrefix(endpoint, "/v1/")
	if rawBody == "" && (method == "evaluate" || method == "green500") {
		if key, unknown := core.BuiltinResultKey(method, seed, "", serverName); unknown < 0 {
			return key
		}
	}
	sum := sha256.Sum256([]byte(endpoint + "|" + rawBody + "|" + serverName + "|" + fmt.Sprint(seed)))
	return "body|" + hex.EncodeToString(sum[:])
}

func buildBody(body, server string, seed float64, vary bool, i int) string {
	if body != "" {
		return body
	}
	s := seed
	if vary {
		s += float64(i)
	}
	return fmt.Sprintf(`{"server":%q,"seed":%g}`, server, s)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseURL := fs.String("url", "http://127.0.0.1:8080", "powerbenchd base URL")
	endpoint := fs.String("endpoint", "/v1/evaluate", "endpoint to hit (POST unless it starts with /healthz, /metrics or /v1/servers)")
	serverName := fs.String("server", "Xeon-E5462", "server name in the generated request body")
	seed := fs.Float64("seed", 1, "seed in the generated request body")
	body := fs.String("body", "", "raw JSON request body (overrides -server/-seed)")
	n := fs.Int("n", 1000, "total requests")
	c := fs.Int("c", 8, "concurrent connections")
	varySeeds := fs.Bool("vary-seeds", false, "give every request a distinct seed (defeats cache and dedup)")
	noWarm := fs.Bool("no-warm", false, "skip the untimed cache warm-up request")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	slow := fs.Int("slow", 3, "list the trace ids of the N slowest responses in the summary")
	campaign := fs.String("campaign", "", "submit this sweep-spec JSON file (\"-\" = stdin) to /v1/jobs and watch it to completion")
	poll := fs.Duration("poll", 250*time.Millisecond, "campaign watch poll interval")
	targetsFlag := fs.String("targets", "", "cluster targets as id=url,... (overrides -url for the timed run)")
	route := fs.String("route", "rr", "multi-target routing: rr (rotate) or affinity (follow the cluster's hash ring)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *campaign != "" {
		return runCampaign(*campaign, *baseURL, *timeout, *poll, stdout, stderr)
	}
	if *n < 1 || *c < 1 {
		fmt.Fprintln(stderr, "loadgen: -n and -c must be at least 1")
		return 2
	}
	targets, err := parseTargets(*targetsFlag, *baseURL)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}
	rtr, err := newRouter(targets, *route)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return 2
	}

	get := strings.HasPrefix(*endpoint, "/healthz") ||
		strings.HasPrefix(*endpoint, "/metrics") ||
		strings.HasPrefix(*endpoint, "/v1/servers")
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *c * len(targets),
			MaxIdleConnsPerHost: *c,
		},
	}

	// shootAt issues one request against a specific target.
	shootAt := func(t target, reqBody string) result {
		var (
			resp *http.Response
			err  error
		)
		start := time.Now()
		if get {
			resp, err = client.Get(t.url + *endpoint)
		} else {
			resp, err = client.Post(t.url+*endpoint, "application/json", strings.NewReader(reqBody))
		}
		lat := time.Since(start)
		if err != nil {
			return result{latency: lat, target: t.id}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return result{
			status:  resp.StatusCode,
			cache:   resp.Header.Get("X-Powerbench-Cache"),
			trace:   resp.Header.Get("X-Powerbench-Trace"),
			peer:    resp.Header.Get("X-Powerbench-Peer"),
			target:  t.id,
			latency: lat,
		}
	}

	// shoot routes request i and fails over across the remaining targets on
	// transport errors — a shard dying mid-run costs latency, not failures.
	shoot := func(i int) result {
		reqBody := buildBody(*body, *serverName, *seed, *varySeeds, i)
		s := *seed
		if *varySeeds {
			s += float64(i)
		}
		order := rtr.order(i, affinityKey(*endpoint, *body, *serverName, s))
		var last result
		for attempt, idx := range order {
			last = shootAt(targets[idx], reqBody)
			if last.status != 0 {
				last.failover = attempt > 0
				return last
			}
		}
		return last
	}

	if !*noWarm && !*varySeeds {
		// Warm every target: the steady state being measured is each
		// shard's cache (or its peer path) populated.
		for i, t := range targets {
			if r := shootAt(t, buildBody(*body, *serverName, *seed, *varySeeds, i)); r.status == 0 {
				fmt.Fprintf(stderr, "loadgen: warm-up request to %s%s failed (is powerbenchd running?)\n", t.url, *endpoint)
				return 1
			}
		}
	}

	results := make([]result, *n)
	var next int64 = -1
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= *n {
					return
				}
				results[i] = shoot(i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Aggregate: cluster-wide, plus a per-target split in multi-target runs.
	statuses := map[int]int{}
	caches := map[string]int{}
	type targetStats struct {
		requests, errs int
		rerouted       int // requests that failed over here from a dead target
		caches         map[string]int
	}
	perTarget := map[string]*targetStats{}
	lats := make([]time.Duration, 0, *n)
	transportErrs, failovers := 0, 0
	for _, r := range results {
		ts := perTarget[r.target]
		if ts == nil {
			ts = &targetStats{caches: map[string]int{}}
			perTarget[r.target] = ts
		}
		// Each request is counted exactly once, at the target that answered
		// it; a failover is an annotation on that one request, not a second
		// request, so per-target counts sum to the -n total and fleet RPS
		// math from the per-shard metrics adds up.
		ts.requests++
		if r.failover {
			failovers++
			ts.rerouted++
		}
		if r.status == 0 {
			transportErrs++
			ts.errs++
			continue
		}
		statuses[r.status]++
		if r.cache != "" {
			caches[r.cache]++
			ts.caches[r.cache]++
		}
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(q*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

	dest := targets[0].url + *endpoint
	if len(targets) > 1 {
		dest = fmt.Sprintf("%d targets (%s routing)%s", len(targets), *route, *endpoint)
	}
	fmt.Fprintf(stdout, "loadgen: %d requests to %s, concurrency %d, %.3fs elapsed\n",
		*n, dest, *c, elapsed.Seconds())
	fmt.Fprintf(stdout, "throughput: %.1f req/s\n", float64(*n)/elapsed.Seconds())
	if len(lats) > 0 {
		fmt.Fprintf(stdout, "latency: min %s  p50 %s  p90 %s  p99 %s  max %s\n",
			ms(lats[0]), ms(pct(0.50)), ms(pct(0.90)), ms(pct(0.99)), ms(lats[len(lats)-1]))
	}
	var codes []int
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	parts := make([]string, 0, len(codes)+1)
	for _, code := range codes {
		parts = append(parts, fmt.Sprintf("%d x %d", code, statuses[code]))
	}
	if transportErrs > 0 {
		parts = append(parts, fmt.Sprintf("transport-error x %d", transportErrs))
	}
	fmt.Fprintf(stdout, "status: %s\n", strings.Join(parts, ", "))
	if len(caches) > 0 {
		fmt.Fprintf(stdout, "cache: hit %d, miss %d, dedup %d, peer %d\n",
			caches["hit"], caches["miss"], caches["dedup"], caches["peer"])
	}
	if len(targets) > 1 {
		for _, t := range targets {
			ts := perTarget[t.id]
			if ts == nil {
				fmt.Fprintf(stdout, "target %s: 0 requests\n", t.id)
				continue
			}
			line := fmt.Sprintf("target %s: %d requests, hit %d, miss %d, dedup %d, peer %d",
				t.id, ts.requests, ts.caches["hit"], ts.caches["miss"], ts.caches["dedup"], ts.caches["peer"])
			if ts.rerouted > 0 {
				line += fmt.Sprintf(", rerouted-here %d", ts.rerouted)
			}
			if ts.errs > 0 {
				line += fmt.Sprintf(", transport-error %d", ts.errs)
			}
			fmt.Fprintln(stdout, line)
		}
		if failovers > 0 {
			fmt.Fprintf(stdout, "failover: %d request(s) rerouted around dead targets\n", failovers)
		}
	}
	writeTraceDigest(stdout, results, *slow)
	writeJobsDigest(stdout, client, targets[0].url)
	if transportErrs > 0 {
		return 1
	}
	return 0
}

// jobsHealth mirrors the jobs block of the daemon's /healthz body.
type jobsHealth struct {
	QueueDepth        int  `json:"queue_depth"`
	ActiveCampaigns   int  `json:"active_campaigns"`
	WALSegments       int  `json:"wal_segments"`
	ReadOnly          bool `json:"read_only"`
	QuarantinedPoints int  `json:"quarantined_points"`
}

// writeJobsDigest appends the daemon's campaign-subsystem health to the
// summary, so a load run's output records whether background sweeps were
// competing for the machine (and whether the WAL has degraded).
func writeJobsDigest(stdout io.Writer, client *http.Client, baseURL string) {
	resp, err := client.Get(strings.TrimSuffix(baseURL, "/") + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h struct {
		Jobs *jobsHealth `json:"jobs"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) != nil || h.Jobs == nil {
		return
	}
	fmt.Fprintf(stdout, "jobs: queue %d, active campaigns %d, wal segments %d, quarantined %d, read-only %v\n",
		h.Jobs.QueueDepth, h.Jobs.ActiveCampaigns, h.Jobs.WALSegments, h.Jobs.QuarantinedPoints, h.Jobs.ReadOnly)
}

// campaignStatus mirrors the fields of the daemon's campaign status body
// the watcher needs.
type campaignStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Reason string `json:"reason"`
	Counts struct {
		Total       int `json:"total"`
		Done        int `json:"done"`
		Quarantined int `json:"quarantined"`
		Cancelled   int `json:"cancelled"`
		Computed    int `json:"computed"`
		Cached      int `json:"cached"`
	} `json:"counts"`
	Error string `json:"error"`
	Field string `json:"field"`
}

// runCampaign submits a sweep spec and watches it to a terminal state.
func runCampaign(specPath, baseURL string, timeout, poll time.Duration, stdout, stderr io.Writer) int {
	var spec []byte
	var err error
	if specPath == "-" {
		spec, err = io.ReadAll(os.Stdin)
	} else {
		spec, err = os.ReadFile(specPath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: reading sweep spec: %v\n", err)
		return 2
	}
	client := &http.Client{Timeout: timeout}
	base := strings.TrimSuffix(baseURL, "/")
	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: submitting campaign: %v (is powerbenchd running?)\n", err)
		return 1
	}
	var st campaignStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		if decErr == nil && st.Error != "" {
			if st.Field != "" {
				fmt.Fprintf(stderr, "loadgen: campaign rejected (%d): %s (field %s)\n", resp.StatusCode, st.Error, st.Field)
			} else {
				fmt.Fprintf(stderr, "loadgen: campaign rejected (%d): %s\n", resp.StatusCode, st.Error)
			}
		} else {
			fmt.Fprintf(stderr, "loadgen: campaign rejected with status %d\n", resp.StatusCode)
		}
		return 1
	}
	if decErr != nil {
		fmt.Fprintf(stderr, "loadgen: decoding campaign status: %v\n", decErr)
		return 1
	}
	verb := "accepted"
	if resp.StatusCode == http.StatusOK {
		verb = "already known"
	}
	fmt.Fprintf(stdout, "campaign %s %s: %d point(s)\n", st.ID, verb, st.Counts.Total)

	start := time.Now()
	lastDone := -1
	for {
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			fmt.Fprintf(stderr, "loadgen: polling campaign: %v\n", err)
			return 1
		}
		var cur campaignStatus
		decErr := json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			fmt.Fprintf(stderr, "loadgen: campaign status %d\n", resp.StatusCode)
			return 1
		}
		if cur.Counts.Done != lastDone {
			lastDone = cur.Counts.Done
			fmt.Fprintf(stdout, "progress: %d/%d done (%d computed, %d cached, %d quarantined) %.1fs\n",
				cur.Counts.Done, cur.Counts.Total, cur.Counts.Computed, cur.Counts.Cached,
				cur.Counts.Quarantined, time.Since(start).Seconds())
		}
		if cur.State == "done" || cur.State == "cancelled" {
			fmt.Fprintf(stdout, "campaign %s %s in %.1fs: %d/%d done, %d computed, %d cached, %d quarantined, %d cancelled\n",
				cur.ID, cur.State, time.Since(start).Seconds(), cur.Counts.Done, cur.Counts.Total,
				cur.Counts.Computed, cur.Counts.Cached, cur.Counts.Quarantined, cur.Counts.Cancelled)
			if cur.Reason != "" {
				fmt.Fprintf(stdout, "reason: %s\n", cur.Reason)
			}
			writeJobsDigest(stdout, client, baseURL)
			if cur.State != "done" {
				return 1
			}
			return 0
		}
		time.Sleep(poll)
	}
}

// writeTraceDigest lists the trace ids worth investigating after a run: the
// slowest N responses and every non-200 — the tail-sampling policy always
// retains errors and the slow tail, so these ids are fetchable from
// /v1/traces/{id} (see `powerbench trace show`).
func writeTraceDigest(stdout io.Writer, results []result, slow int) {
	traced := make([]result, 0, len(results))
	for _, r := range results {
		if r.trace != "" {
			traced = append(traced, r)
		}
	}
	if len(traced) == 0 {
		return
	}
	sort.SliceStable(traced, func(i, j int) bool { return traced[i].latency > traced[j].latency })
	if slow > len(traced) {
		slow = len(traced)
	}
	listed := map[string]bool{}
	for _, r := range traced[:slow] {
		if listed[r.trace] {
			continue
		}
		listed[r.trace] = true
		fmt.Fprintf(stdout, "slow: %s %.2fms status %d\n",
			r.trace, float64(r.latency.Microseconds())/1000, r.status)
	}
	for _, r := range traced {
		if r.status == http.StatusOK || listed[r.trace] {
			continue
		}
		listed[r.trace] = true
		fmt.Fprintf(stdout, "error: %s %.2fms status %d\n",
			r.trace, float64(r.latency.Microseconds())/1000, r.status)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
