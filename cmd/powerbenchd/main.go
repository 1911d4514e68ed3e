// Command powerbenchd serves the power-evaluation pipeline over HTTP/JSON:
// the paper's method as a long-running service instead of a one-shot CLI.
//
// Usage:
//
//	powerbenchd [-addr host:port] [-jobs n] [-max-inflight n]
//	            [-cache-entries n] [-max-timeout d]
//	            [-flight-dir dir] [-pprof]
//	            [-wal-dir dir] [-max-campaign-points n] [-campaign-workers n]
//	            [-shard-id id -peers id=url,... ] [-peer-timeout d] [-ring-vnodes n]
//	            [-v] [-q] [-metrics-out file]
//
// Endpoints:
//
//	POST /v1/evaluate           run the §V method on a server spec
//	POST /v1/green500           PPW-at-peak (§III-B)
//	POST /v1/compare            all three methods across servers (§V-C3)
//	GET  /v1/servers            the built-in Table I specs
//	GET  /v1/flights/{id}       flight records (JSONL) of a computed request
//	POST /v1/jobs               submit a durable sweep campaign
//	GET  /v1/jobs[/{id}]        campaign list / status (?points=1 for the table)
//	DELETE /v1/jobs/{id}        cancel a live campaign (purge a finished one)
//	GET  /v1/jobs/{id}/events   campaign progress as server-sent events
//	GET  /v1/traces[/{id}]      retained request traces (federated when sharded)
//	GET  /v1/fleet              cluster-wide health + merged metrics rollup
//	GET  /metrics               Prometheus exposition of the live registry
//	GET  /healthz               liveness probe (+ campaign/WAL block)
//	GET  /debug/pprof/          live CPU/heap/goroutine profiles (with -pprof)
//
// With -peers set, N daemons run as one sharded cluster (DESIGN.md §14):
// a deterministic consistent-hash ring over the cache keys assigns each
// request an owning shard, cache misses try a bounded peer fetch from the
// owner before computing, off-owner computations are forwarded back, and a
// health loop with hysteresis degrades the whole thing to local compute
// when peers die. -peers takes the full static membership — every entry is
// id=url, the value may be @file to read the same list from a file, and
// -shard-id names this process's entry (its url may be omitted).
//
// A sharded daemon is also one window onto the whole fleet (DESIGN.md
// §15): GET /v1/traces/{id} fans out to the up peers and stitches the
// shards' contributions into one canonical tree (byte-identical from any
// shard), GET /v1/traces merges every shard's retained listing, GET
// /v1/flights/{id} reads through to peers when the record is not local —
// off-owner computations replicate their flight record to the owner
// alongside the result bytes — and GET /v1/fleet aggregates every up
// peer's registry snapshot (counters summed, gauges labeled per shard,
// histograms merged bucket-wise) under a per-shard health block. Down
// shards degrade these answers to "partial": true instead of errors;
// `powerbench fleet status|traces|top` renders them.
//
// With -wal-dir set, campaigns are durable: every state transition is
// journaled to a CRC-checked segmented write-ahead log, and a crashed
// daemon replays it at boot — completed points re-enter the result cache
// byte-identically, unfinished ones resume computing, poisoned ones stay
// quarantined (DESIGN.md §13).
//
// Identical requests are deduplicated and cached (content-addressed on the
// canonical spec/seed/options hash), admission control answers 429 +
// Retry-After beyond -max-inflight concurrent computations, and SIGINT/
// SIGTERM drain in-flight work before exit. -metrics-out writes its
// snapshot after the drain, capturing the daemon's whole life. Traces are
// per request: GET /v1/traces/{id} serves one, and `powerbench trace
// export` renders it as Chrome trace_event JSON.
//
// Every computed request records a flight (DESIGN.md §10): structured
// per-run records with phase boundaries and energy attribution, retrievable
// via the X-Powerbench-Flight response header + GET /v1/flights/{id}, and —
// with -flight-dir — persisted as <id>.jsonl for `powerbench flight` to
// inspect offline. /metrics additionally exports Go runtime health series
// and multi-window SLO burn-rate gauges (availability and latency).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/obs"
	"powerbench/internal/serve"
)

// daemonObs builds the daemon's telemetry from the parsed flags: the
// CLI's, without its obs.Tracer. The tracer keeps every root span it
// records, core records two per computation, and no daemon code reads
// them, so a daemon that kept it would grow without bound. Request traces
// come from tracectx, which the trace store bounds.
func daemonObs(cli *obs.CLI, stdout, stderr io.Writer) *obs.Obs {
	o := cli.NewObs(stdout, stderr)
	o.Tracer = nil
	return o
}

// buildCluster turns the -peers/-shard-id flags into a cluster, or nil for
// a standalone daemon (the serve layer then runs a cluster of one).
func buildCluster(peersFlag, shardID string, peerTimeout time.Duration, vnodes int, o *obs.Obs) (*cluster.Cluster, error) {
	if peersFlag == "" {
		if shardID != "" {
			return nil, errors.New("-shard-id is set but -peers is empty")
		}
		return nil, nil
	}
	if shardID == "" {
		return nil, errors.New("-peers requires -shard-id (which member is this process?)")
	}
	peers, err := parsePeers(peersFlag)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		Self:         shardID,
		Peers:        peers,
		PeerTimeout:  peerTimeout,
		VirtualNodes: vnodes,
		Obs:          o,
	})
}

// parsePeers parses the -peers value: comma- (or, from an @file,
// newline-) separated id=url entries; a bare id is allowed for the entry
// whose url no one needs (self). Lines starting with # in an @file are
// comments.
func parsePeers(v string) ([]cluster.Peer, error) {
	if strings.HasPrefix(v, "@") {
		b, err := os.ReadFile(v[1:])
		if err != nil {
			return nil, fmt.Errorf("-peers %s: %w", v, err)
		}
		v = strings.ReplaceAll(string(b), "\n", ",")
	}
	var peers []cluster.Peer
	for _, entry := range strings.Split(v, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" || strings.HasPrefix(entry, "#") {
			continue
		}
		id, url, _ := strings.Cut(entry, "=")
		if id == "" {
			return nil, fmt.Errorf("-peers entry %q has no shard id", entry)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: url})
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers lists no members")
	}
	return peers, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerbenchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	jobs := fs.Int("jobs", 0, "scheduler workers per request (0 = one per CPU)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent computations before 429 (0 = one per CPU)")
	cacheEntries := fs.Int("cache-entries", 0, "result cache bound in entries (0 = 512)")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "ceiling on per-request deadlines")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight work")
	flightDir := fs.String("flight-dir", "", "persist flight records as <id>.jsonl under this directory")
	walDir := fs.String("wal-dir", "", "journal sweep campaigns to a write-ahead log under this directory (empty = volatile campaigns)")
	maxCampaignPoints := fs.Int("max-campaign-points", 0, "largest allowed campaign expansion (0 = 10000)")
	campaignWorkers := fs.Int("campaign-workers", 0, "concurrently executing campaign points (0 = 2)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	shardID := fs.String("shard-id", "", "this process's shard id within -peers (required with -peers)")
	peersFlag := fs.String("peers", "", "static cluster membership as id=url,... (self's url optional); @file reads the list from a file")
	peerTimeout := fs.Duration("peer-timeout", 0, "budget for one peer cache fetch (0 = 250ms)")
	ringVnodes := fs.Int("ring-vnodes", 0, "virtual nodes per shard on the consistent-hash ring (0 = 128)")
	var cli obs.CLI
	cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := daemonObs(&cli, stdout, stderr)
	log := o.Log

	cl, err := buildCluster(*peersFlag, *shardID, *peerTimeout, *ringVnodes, o)
	if err != nil {
		fmt.Fprintf(stderr, "powerbenchd: %v\n", err)
		return 2
	}

	// Runtime health series (goroutines, heap, GC) on the same registry the
	// service scrapes, refreshed every 10 s and once more at the final flush.
	stopRuntime := obs.NewRuntimeBridge(o.Metrics).Start(0)
	defer stopRuntime()

	svc, err := serve.New(serve.Config{
		Obs:               o,
		Jobs:              *jobs,
		MaxInFlight:       *maxInFlight,
		CacheEntries:      *cacheEntries,
		MaxTimeout:        *maxTimeout,
		FlightDir:         *flightDir,
		WALDir:            *walDir,
		MaxCampaignPoints: *maxCampaignPoints,
		CampaignWorkers:   *campaignWorkers,
		EnableProfiling:   *pprofOn,
		Cluster:           cl,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Boot-time recovery report: what the campaign WAL replayed, resumed
	// and truncated — the operator's confirmation that a crash lost
	// nothing.
	if rec := svc.Recovery(); *walDir != "" {
		log.Reportf("campaign WAL: %d record(s) replayed, %d campaign(s) known, %d resumed, %d completed point(s) restored\n",
			rec.Records, rec.Campaigns, rec.Resumed, rec.DonePoints)
		if rec.TruncatedBytes > 0 {
			log.Reportf("campaign WAL: truncated %d torn byte(s) from the crash tail\n", rec.TruncatedBytes)
		}
		if rec.Corrupt {
			log.Reportf("campaign WAL: CORRUPT mid-stream; campaign subsystem is read-only\n")
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// The resolved address (not the flag) so port 0 is discoverable.
	log.Reportf("powerbenchd listening on http://%s\n", ln.Addr())
	if cl != nil {
		log.Reportf("cluster: shard %s of %d member(s), %d ring point(s)\n",
			cl.Self(), cl.Members(), cl.RingSize())
	}

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain connections, then drain the
	// service's in-flight computations.
	o.Infof("shutting down (drain budget %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	rc := 0
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "powerbenchd: connection drain: %v\n", err)
		rc = 1
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "powerbenchd: computation drain: %v\n", err)
		rc = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, err)
		rc = 1
	}
	log.Reportf("powerbenchd shut down cleanly\n")
	if frc := cli.Flush(o, stderr); rc == 0 {
		rc = frc
	}
	return rc
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}
