package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/server"
)

func TestValidPeerKey(t *testing.T) {
	cases := []struct {
		key string
		ok  bool
	}{
		{"evaluate|abc123", true},
		{"green500|0123456789abcdef", true},
		{"compare|abc+def+0123", true},
		{"evaluate|", false},
		{"evaluate", false},
		{"delete|abc", false},
		{"evaluate|ABC", false},
		{"evaluate|abc def", false},
		{"evaluate|../../etc/passwd", false},
		{"evaluate|" + strings.Repeat("a", 5000), false},
	}
	for _, tc := range cases {
		if got := validPeerKey(tc.key); got != tc.ok {
			t.Errorf("validPeerKey(%q) = %v, want %v", tc.key, got, tc.ok)
		}
	}
}

// The peer routes round-trip: a PUT result is served back by GET with the
// serving shard's identity in the header; unknown keys answer 404 and
// malformed ones 400 without touching the cache.
func TestPeerRoutesRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"result":42}` + "\n"

	rec := do(s, "GET", "/v1/peer/results/evaluate%7Cabc123", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET of uncached key: status %d", rec.Code)
	}
	rec = do(s, "PUT", "/v1/peer/results/evaluate%7Cabc123", body)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(s, "GET", "/v1/peer/results/evaluate%7Cabc123", "")
	if rec.Code != http.StatusOK || rec.Body.String() != body {
		t.Fatalf("GET after PUT: status %d body %q", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(peerHeader); got != "standalone" {
		t.Errorf("peer header %q, want standalone", got)
	}

	for _, bad := range []string{"nope%7Cabc", "evaluate", "evaluate%7CABC"} {
		if rec := do(s, "GET", "/v1/peer/results/"+bad, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, rec.Code)
		}
	}
	if rec := do(s, "PUT", "/v1/peer/results/evaluate%7Cdef", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty PUT: status %d, want 400", rec.Code)
	}
}

// A peer GET for a key that is computing right now rides the live flight
// instead of answering a premature 404 — the owner's singleflight is the
// cluster-wide convergence point.
func TestPeerGetRidesLiveFlight(t *testing.T) {
	s := newTestServer(t, Config{})
	release := make(chan struct{})
	s.evalFn = func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		<-release
		return &core.Evaluation{}, nil
	}

	interactive := make(chan *httptest.ResponseRecorder, 1)
	go func() { interactive <- do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":7}`) }()
	// Wait until the flight is live.
	spec, _ := server.ByName("Xeon-E5462")
	key := "evaluate|" + core.CanonicalHash(spec, 7, core.HashOpts{Method: "evaluate"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f := s.flights.join(key); f != nil {
			s.flights.leave(f)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never began")
		}
		time.Sleep(time.Millisecond)
	}

	peerRec := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		peerRec <- do(s, "GET", "/v1/peer/results/"+strings.ReplaceAll(key, "|", "%7C"), "")
	}()
	time.Sleep(10 * time.Millisecond) // let the peer GET join the flight
	close(release)

	ir, pr := <-interactive, <-peerRec
	if ir.Code != http.StatusOK || pr.Code != http.StatusOK {
		t.Fatalf("statuses: interactive %d, peer %d (%s)", ir.Code, pr.Code, pr.Body.String())
	}
	if ir.Body.String() != pr.Body.String() {
		t.Error("peer GET served different bytes than the flight's waiters")
	}
}

// --- multi-shard harness: real listeners, real clusters, real pipeline ---

type shardNode struct {
	id  string
	url string
	srv *Server
	hs  *http.Server
}

// startShards boots n powerbenchd shards on loopback listeners, each
// configured with the full static membership, and waits until every shard
// sees every peer up.
func startShards(t *testing.T, n int) []*shardNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: fmt.Sprintf("s%d", i), URL: "http://" + ln.Addr().String()}
	}
	nodes := make([]*shardNode, n)
	for i := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:          peers[i].ID,
			Peers:         peers,
			Obs:           obs.New(),
			ProbeInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Obs: obs.New(), Jobs: 2, Cluster: cl})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(lns[i])
		nodes[i] = &shardNode{id: peers[i].ID, url: peers[i].URL, srv: srv, hs: hs}
		t.Cleanup(func() { hs.Close(); srv.Close() })
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, nd := range nodes {
		for _, other := range nodes {
			if other.id == nd.id {
				continue
			}
			for !nd.srv.cluster.Healthy(other.id) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never saw %s healthy", nd.id, other.id)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nodes
}

// ownedSeed finds a seed whose evaluate cache key the ring assigns to
// owner — deterministic, since ownership is a pure function of the key.
func ownedSeed(t *testing.T, c interface{ Owner(string) string }, owner string) (float64, string) {
	t.Helper()
	spec, err := server.ByName("Xeon-E5462")
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1.0; seed <= 200; seed++ {
		key := "evaluate|" + core.CanonicalHash(spec, seed, core.HashOpts{Method: "evaluate"})
		if c.Owner(key) == owner {
			return seed, key
		}
	}
	t.Fatalf("no seed in 1..200 hashes to owner %s", owner)
	return 0, ""
}

func postEval(t *testing.T, url string, seed float64) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"server":"Xeon-E5462","seed":%g}`, seed)
	resp, err := http.Post(url+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A 3-shard cluster answers the same request byte-identically on every
// shard — and identically to a standalone daemon — with the key computed
// once (on its owner) and served to the other shards via cache peering.
func TestThreeShardByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-shard cluster over the real pipeline")
	}
	nodes := startShards(t, 3)
	seed, key := ownedSeed(t, nodes[0].srv.cluster, "s1")
	owner := nodes[1]

	// First hit lands on the owner: a genuine local compute.
	resp := postEval(t, owner.url, seed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner compute: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("owner cache state %q, want miss", got)
	}
	want := readAll(t, resp)

	// The other shards serve the same key via peer fetch, attributed to
	// the owner, byte-for-byte identical.
	for _, nd := range []*shardNode{nodes[0], nodes[2]} {
		resp := postEval(t, nd.url, seed)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", nd.id, resp.StatusCode)
		}
		if got := resp.Header.Get(cacheHeader); got != "peer" {
			t.Errorf("%s cache state %q, want peer", nd.id, got)
		}
		if got := resp.Header.Get(peerHeader); got != "s1" {
			t.Errorf("%s peer header %q, want s1", nd.id, got)
		}
		if body := readAll(t, resp); body != want {
			t.Errorf("%s served different bytes than the owner", nd.id)
		}
		if !nd.srv.cluster.IsLocal(key) && nd.srv.cluster.Owner(key) != "s1" {
			t.Errorf("%s disagrees about ownership of %s", nd.id, key)
		}
	}

	// A standalone daemon produces the identical bytes: clustering changed
	// where the computation ran, never what it returned.
	solo := newTestServer(t, Config{})
	rec := do(solo, "POST", "/v1/evaluate", fmt.Sprintf(`{"server":"Xeon-E5462","seed":%g}`, seed))
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone: status %d", rec.Code)
	}
	if rec.Body.String() != want {
		t.Error("standalone daemon served different bytes than the cluster")
	}

	// The /healthz cluster block reports the mesh: 3 members, both peers
	// up, and (on a non-owner) a recorded peer hit.
	hresp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Cluster cluster.Health `json:"cluster"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Cluster.Members != 3 || len(h.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster block: %+v", h.Cluster)
	}
	for _, p := range h.Cluster.Peers {
		if p.State != cluster.StateUp {
			t.Errorf("peer %s state %q, want up", p.ID, p.State)
		}
	}
	if h.Cluster.PeerHits < 1 {
		t.Errorf("peer hits %d, want ≥1", h.Cluster.PeerHits)
	}
}

// Killing a key's owner must not take the key down: the surviving shard's
// peer fetch fails and it computes locally — the cluster degrades to
// single-node behavior, never to an error.
func TestShardKillLocalComputeFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2-shard cluster over the real pipeline")
	}
	nodes := startShards(t, 2)
	seed, _ := ownedSeed(t, nodes[0].srv.cluster, "s1")

	// Hard-kill the owner (no graceful drain — the worst case).
	nodes[1].hs.Close()
	nodes[1].srv.Close()

	resp := postEval(t, nodes[0].url, seed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request for a dead owner's key: status %d", resp.StatusCode)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, `"Rows"`) {
		t.Errorf("fallback body does not look like an evaluation: %.120s", body)
	}
}

// Abandoning a flight (last waiter gone) must cancel an in-flight peer
// fetch, not just a local compute — a slow peer cannot hold a goroutine
// past the request deadline.
func TestAbandonCancelsPeerFetch(t *testing.T) {
	sawCancel := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("/v1/peer/results/", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // a wedged owner: never answers
		close(sawCancel)
	})
	owner := httptest.NewServer(mux)
	defer owner.Close()

	cl, err := cluster.New(cluster.Config{
		Self:          "s0",
		Peers:         []cluster.Peer{{ID: "s0"}, {ID: "s1", URL: owner.URL}},
		Obs:           obs.New(),
		ProbeInterval: time.Hour,        // no probe interference mid-test
		PeerTimeout:   30 * time.Second, // only the caller's ctx may end the fetch
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHealthy("s1", true)
	s := newTestServer(t, Config{Cluster: cl})
	seed, _ := ownedSeed(t, cl, "s1")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		body := fmt.Sprintf(`{"server":"Xeon-E5462","seed":%g}`, seed)
		req := httptest.NewRequest("POST", "/v1/evaluate", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		done <- rec.Code
	}()
	time.Sleep(50 * time.Millisecond) // let the flight reach the peer fetch
	cancel()                          // client disconnects: last waiter leaves

	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoning the flight did not cancel the in-flight peer fetch")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// execPoint routes campaign points through the cluster: a point owned by a
// healthy peer is fetched from (or dispatched to) the owner, and the bytes
// land in the local cache either way. When the owner has no copy and the
// dispatch fails, the point computes locally and the result is offered
// back to the owner, the same write-back a request's flight does.
func TestExecPointDispatchesToOwner(t *testing.T) {
	spec, err := server.ByName("Xeon-E5462")
	if err != nil {
		t.Fatal(err)
	}
	canned := []byte(`{"canned":true}` + "\n")
	var served atomic.Int32
	// cold is the key the owner has no copy of; offered receives the
	// bodies PUT back to the owner under it.
	var cold atomic.Value
	cold.Store("")
	offered := make(chan []byte, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /v1/peer/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") == cold.Load() {
			http.NotFound(w, r)
			return
		}
		served.Add(1)
		w.Write(canned)
	})
	mux.HandleFunc("POST /v1/evaluate", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "saturated", http.StatusTooManyRequests)
	})
	mux.HandleFunc("PUT /v1/peer/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.PathValue("key") == cold.Load() {
			select {
			case offered <- body:
			default:
				t.Error("cold key offered twice")
			}
		}
		w.WriteHeader(http.StatusNoContent)
	})
	owner := httptest.NewServer(mux)
	defer owner.Close()

	cl, err := cluster.New(cluster.Config{
		Self:          "s0",
		Peers:         []cluster.Peer{{ID: "s0"}, {ID: "s1", URL: owner.URL}},
		Obs:           obs.New(),
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHealthy("s1", true)
	s := newTestServer(t, Config{Cluster: cl})
	s.evalFn = stubEval
	seed, key := ownedSeed(t, cl, "s1")

	pt := jobs.Point{Method: "evaluate", Server: spec.Name, Seed: seed, Key: key}
	body, cached, err := s.execPoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || string(body) != string(canned) {
		t.Fatalf("peer-owned point: cached=%v body=%q", cached, body)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("owner served %d fetches, want 1", n)
	}
	// The fetched bytes landed in the local cache: a rerun never dials out.
	if _, _, err := s.execPoint(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("second exec dialed the owner (%d fetches)", n)
	}

	// A second s1-owned key the owner has never seen, with the dispatch
	// refused: local compute, then the bytes go back to the owner.
	var coldPt jobs.Point
	for next := seed + 1; coldPt.Key == ""; next++ {
		k := "evaluate|" + core.CanonicalHash(spec, next, core.HashOpts{Method: "evaluate"})
		if cl.Owner(k) == "s1" {
			coldPt = jobs.Point{Method: "evaluate", Server: spec.Name, Seed: next, Key: k}
		}
	}
	cold.Store(coldPt.Key)
	cl.SetHealthy("s1", true)
	body, cached, err = s.execPoint(context.Background(), coldPt)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("locally computed point reported cached")
	}
	select {
	case got := <-offered:
		if string(got) != string(body) {
			t.Errorf("owner was offered %q, want the computed %q", got, body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("locally computed off-owner point was never offered to its owner")
	}
}
