package ssj

import (
	"fmt"
	"sync"
	"time"

	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// Phase labels of the SPECpower protocol, in execution order: three
// calibration phases, then target loads from 100% down to 10%, then
// active idle.
var PhaseLabels = []string{
	"Cal1", "Cal2", "Cal3",
	"100%", "90%", "80%", "70%", "60%", "50%", "40%", "30%", "20%", "10%",
}

// LevelOf returns the target load fraction of a phase label (calibration
// phases run flat out).
func LevelOf(label string) float64 {
	switch label {
	case "Cal1", "Cal2", "Cal3", "100%":
		return 1.0
	}
	var pct int
	if _, err := fmt.Sscanf(label, "%d%%", &pct); err == nil {
		return float64(pct) / 100
	}
	return 0
}

// PhaseResult is one rung of the graduated ladder.
type PhaseResult struct {
	Label string
	// TargetLoad is the requested fraction of calibrated throughput.
	TargetLoad float64
	// Ops is the ssj_ops achieved during the phase.
	Ops float64
	// CPUUsage is the per-core CPU utilization in percent (Fig. 2).
	CPUUsage []float64
	// MemoryUsage is the system memory utilization in percent (Fig. 1).
	MemoryUsage float64
	// Watts is the average system power over the phase.
	Watts float64
}

// Result is a complete SPECpower-style run.
type Result struct {
	Server string
	Phases []PhaseResult
	// MaxOps is the calibrated 100% throughput.
	MaxOps float64
	// ActiveIdleWatts is the power at zero load with the JVM resident.
	ActiveIdleWatts float64
	// Score is the overall ssj_ops/watt figure (Σ ops over the ten target
	// loads divided by Σ watts over those loads plus active idle).
	Score float64
}

// ssjMemFrac models the paper's Fig. 1: memory utilization stays below 14%
// and barely responds to load.
func ssjMemFrac(load float64) float64 { return 0.115 + 0.02*load }

// cpuNoise derives a deterministic per-core perturbation so the Fig. 2
// per-core usage lines are distinguishable, as measured ladders are.
func cpuNoise(s *rng.Stream) float64 { return (s.Next() - 0.5) * 4 }

// Run executes the graduated protocol as a workload model on the server's
// calibrated power model. The calibrated maximum throughput is chosen so
// the final score matches the server's published SPECpower figure — the
// paper reports the scores (247 / 22.2 / 139), and server-side Java
// throughput is not derivable from FLOPS.
func Run(spec *server.Spec) (*Result, error) {
	if spec.Cores < 1 {
		return nil, fmt.Errorf("ssj: server %q has no cores", spec.Name)
	}
	noise := rng.NewStream(7, rng.A)

	model := func(load float64) workload.Model {
		return workload.Model{
			Name:             fmt.Sprintf("SPECpower.%d", spec.Cores),
			Processes:        spec.Cores,
			DurationSec:      240,
			MemoryBytes:      uint64(ssjMemFrac(load) * float64(spec.MemoryBytes)),
			Char:             workload.CharSSJ,
			UtilizationScale: load,
		}
	}

	res := &Result{Server: spec.Name}
	var sumOps, sumWatts float64
	for _, label := range PhaseLabels {
		load := LevelOf(label)
		m := model(load)
		watts := spec.PowerOf(m)
		cpu := make([]float64, spec.Cores)
		for i := range cpu {
			c := load*100 + cpuNoise(noise)
			if c < 0 {
				c = 0
			}
			if c > 100 {
				c = 100
			}
			cpu[i] = c
		}
		res.Phases = append(res.Phases, PhaseResult{
			Label:       label,
			TargetLoad:  load,
			CPUUsage:    cpu,
			MemoryUsage: ssjMemFrac(load) * 100,
			Watts:       watts,
		})
		if label != "Cal1" && label != "Cal2" && label != "Cal3" {
			sumWatts += watts
		}
	}
	idleModel := model(0)
	idleModel.UtilizationScale = 0.001 // JVM resident, no transactions
	res.ActiveIdleWatts = spec.PowerOf(idleModel)
	sumWatts += res.ActiveIdleWatts

	// Calibrate MaxOps so Score equals the published figure.
	sumLevels := 0.0
	for _, p := range res.Phases[3:] {
		sumLevels += p.TargetLoad
	}
	score := spec.SPECpowerScore
	if score <= 0 {
		score = 100 // custom server without a published figure
	}
	res.MaxOps = score * sumWatts / sumLevels
	for i := range res.Phases {
		res.Phases[i].Ops = res.Phases[i].TargetLoad * res.MaxOps
	}
	for _, p := range res.Phases[3:] {
		sumOps += p.Ops
	}
	res.Score = sumOps / sumWatts
	return res, nil
}

// Model returns the workload model of the full-load ssj phase at the given
// process count — the "SPECPower.n" bars of the paper's Figs. 3-4.
func Model(spec *server.Spec, procs int) (workload.Model, error) {
	if procs < 1 || procs > spec.Cores {
		return workload.Model{}, fmt.Errorf("ssj: %d processes outside 1..%d", procs, spec.Cores)
	}
	return workload.Model{
		Name:             fmt.Sprintf("SPECPower.%d", procs),
		Processes:        procs,
		DurationSec:      240,
		MemoryBytes:      uint64(ssjMemFrac(1) * float64(spec.MemoryBytes)),
		Char:             workload.CharSSJ,
		UtilizationScale: 1,
	}, nil
}

// NativeCalibration runs the real transaction engine flat out on workers
// goroutines for the given duration and returns the measured throughput in
// ssj_ops/sec — the native counterpart of the three calibration phases.
func NativeCalibration(workers int, duration time.Duration) (float64, error) {
	if workers < 1 {
		return 0, fmt.Errorf("ssj: need at least one worker")
	}
	if duration <= 0 {
		return 0, fmt.Errorf("ssj: need a positive duration")
	}
	var wg sync.WaitGroup
	ops := make([]int64, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			wh := NewWarehouse(float64(id) + 1)
			s := rng.NewStream(float64(id)+100, rng.A)
			var sink float64
			for time.Since(start) < duration {
				sink += wh.RunBatch(256, s)
				ops[id] += 256
			}
			_ = sink
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var total int64
	for _, o := range ops {
		total += o
	}
	return float64(total) / elapsed, nil
}
