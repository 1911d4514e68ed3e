// Package flight is the pipeline's flight recorder: a durable, queryable
// record of *where the watts went* in every evaluation run. Each
// core.EvaluateCtx/Green500Ctx execution (and each leg of a CompareCtx)
// appends one structured record — run identity via the canonical request
// hash, phase boundaries on the simulation clock, meter-trace summaries,
// PMU deltas, per-phase energy attribution, fault-ledger counts, scheduler
// outcome stats and quality annotations — into a bounded in-memory ring
// that can be flushed to disk as JSONL and read back for inspection and
// diffing.
//
// The design follows the operational lesson of the Cray PM Database work
// (durable, per-job power telemetry is what makes a power method usable in
// production) and EfiMon's process-level attribution (arXiv:1408.2657,
// arXiv:2409.17368; see PAPERS.md): live metrics and traces answer "what is
// happening now", while the flight record answers "what happened to run X,
// and how does it differ from run Y".
//
// Determinism contract: a record is a pure function of the run it
// describes. Every field is derived from the deterministic pipeline
// artifacts (identity-seeded meter traces, PMU windows, canonical-order
// results) — never from wall-clock time, scheduling order or worker count —
// and the recorder flushes records sorted in canonical order. A flight
// record produced at -jobs 8 is therefore byte-identical to one produced at
// -jobs 1, as long as the ring did not overflow (Dropped reports when it
// did).
package flight

// Schema is the record-format identifier carried by every record; Decode
// rejects records from other schemas.
const Schema = "powerbench-flight-v1"

// Record is one evaluation run's flight record — one JSONL line.
type Record struct {
	// SchemaV identifies the record format (Schema).
	SchemaV string `json:"schema"`
	// Method is the evaluation flavor: "evaluate" or "green500". A compare
	// emits one record per server leg per method.
	Method string `json:"method"`
	// Server is the spec name of the system under test.
	Server string `json:"server"`
	// Seed is the run's base simulation seed.
	Seed float64 `json:"seed"`
	// Key is the run's canonical identity, core.CanonicalHash over
	// (spec, seed, method, fault profile) — the same key the serve layer's
	// cache and dedup address the run by.
	Key string `json:"key"`
	// FaultProfile names the active fault-injection profile ("none" when
	// the clean path ran).
	FaultProfile string `json:"fault_profile"`
	// Score is the run's headline figure: the mean PPW score for an
	// evaluation, the PPW-at-peak for a Green500 run.
	Score float64 `json:"score"`
	// Phases are the run's per-state windows in canonical plan order.
	Phases []Phase `json:"phases"`
	// Energy is the whole-run energy attribution, the sum of the phases'.
	Energy Energy `json:"energy"`
	// Sched summarizes the scheduler's per-run outcome accounting. Only
	// scheduling-independent quantities are recorded (retry decisions are
	// pure functions of run identity and attempt).
	Sched SchedStats `json:"sched"`
	// Faults holds the run's injected-fault counts by kind name (empty on
	// the clean path). The counts are derived per run identity, so they are
	// identical at any worker count.
	Faults map[string]int64 `json:"faults,omitempty"`
	// Quality mirrors the run's repair/degradation annotations.
	Quality QualityStats `json:"quality"`
	// Notes are the human-readable caveats attached to the run.
	Notes []string `json:"notes,omitempty"`
}

// Phase is one state window of a run: a program execution of the plan
// (idle, EP, HPL configurations) with its trace summary, PMU deltas and
// energy attribution.
type Phase struct {
	// Name is the program/state name ("idle", "ep.C.4", "HPL Mf ...").
	Name string `json:"name"`
	// Start and End bound the window on the simulation clock (seconds).
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Samples is the meter-sample count of the (possibly repaired) window.
	Samples int `json:"samples"`
	// TrimDropped is how many samples the 10% head/tail trim excluded.
	TrimDropped int `json:"trim_dropped"`
	// AvgWatts is the analysis pipeline's trimmed-mean power of the window.
	AvgWatts float64 `json:"avg_watts"`
	// MinWatts/MaxWatts bound the raw window readings.
	MinWatts float64 `json:"min_watts"`
	MaxWatts float64 `json:"max_watts"`
	// GFLOPS and PPW are the row figures of the state.
	GFLOPS float64 `json:"gflops"`
	PPW    float64 `json:"ppw"`
	// Energy is the window's attributed energy decomposition.
	Energy Energy `json:"energy"`
	// PMU aggregates the counter windows the run collected.
	PMU PMUDelta `json:"pmu"`
}

// PMUDelta is the sum of a run's PMU counter windows.
type PMUDelta struct {
	Windows      int     `json:"windows"`
	Instructions float64 `json:"instructions"`
	L2Hits       float64 `json:"l2_hits"`
	L3Hits       float64 `json:"l3_hits"`
	MemReads     float64 `json:"mem_reads"`
	MemWrites    float64 `json:"mem_writes"`
}

// SchedStats is the scheduling-independent outcome summary of a run.
type SchedStats struct {
	// States is how many plan states the run dispatched.
	States int `json:"states"`
	// Completed is how many produced a table row.
	Completed int `json:"completed"`
	// Retried counts extra attempts after transient failures.
	Retried int `json:"retried"`
	// Failed counts states that exhausted their attempt budget.
	Failed int `json:"failed"`
}

// QualityStats mirrors core.Quality's repair counters (duplicated here so
// the flight package stays import-free of core, which imports it).
type QualityStats struct {
	InvalidSamples    int `json:"invalid_samples"`
	DuplicatesDropped int `json:"duplicates_dropped"`
	SpikesClipped     int `json:"spikes_clipped"`
	GapSamplesFilled  int `json:"gap_samples_filled"`
	RunsRetried       int `json:"runs_retried"`
	RunsFailed        int `json:"runs_failed"`
}
