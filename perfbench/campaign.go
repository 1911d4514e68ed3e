package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/serve"
)

// seedsPerSecond sizes the sweep: 12 points per seed, so a 20 s run
// submits 1440 points, which take 15 to 20 s on 2 cores.
const seedsPerSecond = 6

// campaignWorkers is the daemon's default campaign worker count, which the
// workload keeps.
const campaignWorkers = 2

// pollEvery is the status polling period; it bounds the resolution of a
// point's time-to-result.
const pollEvery = 10 * time.Millisecond

func runCampaign(cfg config) (*result, error) {
	res := newResult()
	base := float64(cfg.seed%10000) * 100000
	var dir string
	repeat := 0
	d, setup, err := setupDaemon(func() serve.Config {
		// Each set-up gets a fresh, empty WAL directory.
		repeat++
		dir = filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d", repeat))
		return serve.Config{WALDir: dir}
	}, func(d *daemon) error {
		_, err := d.warm(missWarmups(base))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()

	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	nSeeds := int(seedsPerSecond * dur)
	if nSeeds < 1 {
		nSeeds = 1
	}
	total := 0
	pass := func(name string, from float64) (*loopStats, windowStats, error) {
		spec := jobs.SweepSpec{
			Name:          name,
			Methods:       []string{"evaluate", "green500"},
			Servers:       serverNames,
			FaultProfiles: []string{"none", "light"},
			SeedRange:     &jobs.SeedRange{From: from, To: from + float64(nSeeds-1), Step: 1},
		}
		body, _ := json.Marshal(spec) // plain struct always marshals
		st := &loopStats{}
		w := openWindow()
		t0 := time.Now()
		r, err := d.do(http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return nil, windowStats{}, err
		}
		var cs jobs.CampaignStatus
		if r.status != http.StatusAccepted || json.Unmarshal(r.body, &cs) != nil {
			return nil, windowStats{}, fmt.Errorf("POST /v1/jobs: status %d: %s", r.status, r.body)
		}
		done := 0
		for !terminal(cs.State) {
			time.Sleep(pollEvery)
			r, err := d.do(http.MethodGet, "/v1/jobs/"+cs.ID, nil)
			if err != nil {
				return nil, windowStats{}, err
			}
			if r.status != http.StatusOK || json.Unmarshal(r.body, &cs) != nil {
				return nil, windowStats{}, fmt.Errorf("GET /v1/jobs/%s: status %d", cs.ID, r.status)
			}
			since := float64(time.Since(t0)) / 1e6
			for ; done < cs.Counts.Done; done++ {
				st.lat = append(st.lat, since)
			}
		}
		ws := w.close()
		st.ops = cs.Counts.Total
		total += cs.Counts.Total
		if cs.State != jobs.StateDone || cs.Counts.Done != cs.Counts.Total || cs.Counts.Quarantined != 0 {
			st.failed = cs.Counts.Total - cs.Counts.Done
			st.problems = append(st.problems, fmt.Sprintf("campaign %s ended %s with %d/%d done, %d quarantined",
				cs.ID, cs.State, cs.Counts.Done, cs.Counts.Total, cs.Counts.Quarantined))
		}
		res.note("campaign %s: %d points in %.3f s", cs.ID, cs.Counts.Total, ws.wall.Seconds())
		return st, ws, nil
	}

	st, ws, err := pass(fmt.Sprintf("perfbench-%d", cfg.seed), base+1)
	if err != nil {
		return nil, err
	}
	st.into(res)
	res.fillEndToEnd(setup, st.ops, float64(st.ops)/ws.wall.Seconds(), ws, st.lat)
	if !cfg.trace {
		d.close()
		d = nil
		rec, _, err := recoverWAL(dir, total, res)
		if err != nil {
			return nil, err
		}
		res.extra["recovery_s"] = rec
		return res, nil
	}

	before, err := d.metrics()
	if err != nil {
		return nil, err
	}
	walBefore := dirBytes(dir)
	evBefore := len(d.o.Tracer.Events())
	tst, tws, err := pass(fmt.Sprintf("perfbench-%d-traced", cfg.seed), base+1+float64(nSeeds))
	if err != nil {
		return nil, err
	}
	tst.into(res)
	after, err := d.metrics()
	if err != nil {
		return nil, err
	}
	c := delta(before, after)
	pts := float64(tst.ops)
	res.fillCounters(c, tst.ops)
	res.ratio("jobs.wal_records_per_point", c.family("jobs_wal_records_total"), pts, "wal records", "points")
	res.ratio("jobs.wal_bytes_per_point", float64(dirBytes(dir)-walBefore), pts, "wal bytes", "points")
	fsyncs := c["jobs_wal_fsync_seconds_count"]
	res.ratio("jobs.fsyncs_per_point", fsyncs, pts, "fsyncs", "points")
	if fsyncs > 0 {
		res.layer["jobs.fsync_mean_ms"] = c["jobs_wal_fsync_seconds_sum"] / fsyncs * 1000
	}
	res.ratio("jobs.retries_per_point", c.family("jobs_point_retries_total"), pts, "retries", "points")
	busy := computeSeconds(d.o.Tracer.Events()[evBefore:])
	res.ratio("jobs.worker_busy_ratio", busy, campaignWorkers*tws.wall.Seconds(), "compute s", "workers x wall s")
	res.layer["runtime.gc_cycles_per_op"] = float64(tws.gcs) / pts
	res.layer["bench.trace_overhead_pct"] = (mean(tst.lat)/mean(st.lat) - 1) * 100

	d.close()
	d = nil
	_, rec, err := recoverWAL(dir, total, res)
	if err != nil {
		return nil, err
	}
	res.layer["jobs.replay_records"] = float64(rec.Records)
	return res, nil
}

func terminal(state string) bool {
	return state == jobs.StateDone || state == jobs.StateCancelled
}

// recoverWAL restarts the daemon on the WAL setupRepeats times and returns
// the median time of serve.New, which replays it. Every restart must
// restore exactly donePoints completed points.
func recoverWAL(dir string, donePoints int, res *result) (float64, jobs.Recovery, error) {
	var times []float64
	var first jobs.Recovery
	for r := 0; r < setupRepeats; r++ {
		o := (&obs.CLI{Quiet: true}).NewObs(io.Discard, io.Discard)
		t0 := time.Now()
		svc, err := serve.New(serve.Config{Obs: o, WALDir: dir})
		d := time.Since(t0)
		if err != nil {
			return 0, first, fmt.Errorf("restart on the WAL: %w", err)
		}
		rec := svc.Recovery()
		svc.Close()
		if r == 0 {
			first = rec
		}
		if rec.DonePoints != donePoints || rec.Corrupt {
			res.problem("recovery restored %d done points (corrupt %v), want %d", rec.DonePoints, rec.Corrupt, donePoints)
		}
		times = append(times, d.Seconds())
	}
	res.note("recovery: %d records replayed, %d done points restored; restarts s: %s", first.Records, first.DonePoints, fmtList(times))
	return median(times), first, nil
}

// computeSeconds sums the wall of every evaluate and green500 root span in
// the daemon's tracer events: one per campaign point computed.
func computeSeconds(events []obs.TraceEvent) float64 {
	type track struct {
		root       bool
		start, end int64
	}
	tracks := map[int64]*track{}
	for _, e := range events {
		t := tracks[e.Tid]
		if t == nil {
			t = &track{start: e.TS, end: e.TS}
			// A track starts with its root span's begin event.
			t.root = e.Phase == 'B' && (strings.HasPrefix(e.Name, "evaluate ") || strings.HasPrefix(e.Name, "green500 "))
			tracks[e.Tid] = t
		}
		if e.Phase == 'E' {
			t.end = e.TS
		}
	}
	var us int64
	for _, t := range tracks {
		if t.root {
			us += t.end - t.start
		}
	}
	return float64(us) / 1e6
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
