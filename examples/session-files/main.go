// session-files demonstrates the paper's file-based measurement workflow
// (§V-C2): run a measurement session on the simulated server, write the
// WTViewer-style power CSVs and the run manifest to disk, then perform the
// whole analysis — merge, clock sync, per-program windows, 10% trim,
// average — from the files alone, exactly as one would with logs from real
// hardware.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"powerbench/internal/core"
	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "powerbench-session-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Run a short session: idle, then EP.C at 1 and 4 processes. The
	//    logging PC's clock is 3 s ahead of the server, as real setups
	//    drift before step (3) of the procedure synchronizes them.
	spec := server.XeonE5462()
	engine := sim.New(spec, 99)
	engine.Meter.ClockSkewSec = 3.0

	models := []workload.Model{workload.Idle(120)}
	for _, procs := range []int{1, 4} {
		m, err := npb.NewModel(spec, npb.EP, npb.ClassC, procs)
		if err != nil {
			log.Fatal(err)
		}
		models = append(models, m)
	}
	// The runs go back to back on the test scripts' timeline, with 30 s
	// idle gaps between them. The meter logs the whole session: each gap at
	// idle power, then each run's power draw.
	const gap = 30.0
	starts := sim.Timeline(models, gap)
	session := &core.Session{Server: spec.Name}
	var logs [][]meter.Sample
	idle := func(float64) float64 { return spec.IdleWatts }
	for i, m := range models {
		if i > 0 {
			from := session.Entries[i-1].End + 1
			logs = append(logs, engine.Meter.Record(from, from+gap, idle))
		}
		p, err := engine.PowerFunc(m, starts[i])
		if err != nil {
			log.Fatal(err)
		}
		logs = append(logs, engine.Meter.Record(p.Start, p.End, p.At))
		session.Entries = append(session.Entries, core.SessionEntry{Program: m.Name, Start: p.Start, End: p.End})
	}
	merged := meter.Merge(logs...)

	// 2. Write the logs as two rotated CSV files plus the manifest.
	half := len(merged) / 2
	for i, chunk := range [][]meter.Sample{merged[:half], merged[half:]} {
		path := filepath.Join(dir, fmt.Sprintf("wt210-%d.csv", i))
		if err := os.WriteFile(path, meter.MarshalCSV(chunk), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	manifestPath := filepath.Join(dir, "session.manifest")
	if err := os.WriteFile(manifestPath, session.MarshalManifest(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session files in %s\n\n", dir)

	// 3. Analyze from the files alone.
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		log.Fatal(err)
	}
	var csvs [][]byte
	for i := 0; i < 2; i++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wt210-%d.csv", i)))
		if err != nil {
			log.Fatal(err)
		}
		csvs = append(csvs, data)
	}
	analyzed, err := core.AnalyzeSession(manifest, engine.Meter.ClockSkewSec, csvs...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Program   Avg power   Samples   Duration")
	for _, p := range analyzed {
		fmt.Printf("%-8s  %7.1f W  %7d  %7.0f s\n", p.Program, p.Watts, p.Samples, p.Duration)
	}
}
