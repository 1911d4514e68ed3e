// Package jobs is the durable campaign subsystem of powerbenchd: an
// asynchronous job queue that turns one declarative sweep spec (servers ×
// methods × fault profiles × seeds) into a campaign of content-addressed
// evaluation points, executes them on a bounded worker pool with per-point
// retries and poison-job quarantine, and journals every state transition
// to a CRC-checked, segmented write-ahead log so a `kill -9` mid-campaign
// resumes on the next boot instead of losing hours of sweep work.
//
// The design leans on the pipeline's two load-bearing properties:
//
//   - Results are content-addressed (core.CanonicalHash) and byte-identical
//     across runs, so a recovered campaign re-converges for free: completed
//     points replay out of the WAL into the result cache, and re-executed
//     in-flight points produce the exact bytes the crashed run would have.
//
//   - Expansion is a pure function of the spec, so the WAL never needs to
//     journal the point list — replaying the accepted spec re-derives the
//     same points in the same order, and per-point records address them by
//     index.
//
// The state machine (DESIGN.md §13):
//
//	campaign: accepted → running → done | cancelled
//	point:    pending → running → done | quarantined | cancelled
//	                        └→ failed (retrying) → pending
//
// Every transition appends one WAL record; recovery replays the records in
// order, treating the WAL as the single source of truth. A point with a
// done record is never executed again; a point with only started/failed
// records re-enters the queue (idempotent by content-addressing); a
// quarantined point stays parked with its last error.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/server"
)

// FieldError is a validation failure that names the offending spec field,
// so the HTTP layer can answer 400 with a machine-usable error body
// instead of a bare string.
type FieldError struct {
	Field string
	Msg   string
}

func (e *FieldError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Msg) }

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// SeedRange generates an arithmetic seed sequence: From, From+Step, ...
// up to and including To (when the step lands on it exactly).
type SeedRange struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
	Step float64 `json:"step"`
}

// span returns how many seeds the range generates, as a float64: a range
// too long for an int counts above every campaign bound instead of
// wrapping to a small or negative length.
func (r SeedRange) span() float64 {
	if !(r.Step > 0) || !(r.To >= r.From) {
		return 0
	}
	return math.Floor((r.To-r.From)/r.Step) + 1
}

// RetrySpec bounds the per-point retry budget of a campaign.
type RetrySpec struct {
	// Attempts is the attempt budget per dispatch (values below 1 behave
	// as 1; 0 selects the default of 3).
	Attempts int `json:"attempts,omitempty"`
	// BackoffMS is the sleep before the second attempt in milliseconds; it
	// doubles per further attempt (capped at 16x) with ±50% deterministic
	// jitter derived from the point's identity.
	BackoffMS int `json:"backoff_ms,omitempty"`
}

// SweepSpec is the declarative campaign request accepted by POST /v1/jobs:
// the cross product of methods × servers × fault_profiles × seeds becomes
// one evaluation point each, in exactly that nesting order.
type SweepSpec struct {
	// Name labels the campaign; it participates in the campaign id, so two
	// otherwise identical sweeps with different names are distinct
	// campaigns.
	Name string `json:"name,omitempty"`
	// Client is the fair-share identity: the queue round-robins across
	// clients so one tenant's 10k-point campaign cannot starve another's
	// 10-point one. Empty selects "default".
	Client string `json:"client,omitempty"`
	// Priority orders campaigns within one client (higher first; ties
	// resolve by submission order).
	Priority int `json:"priority,omitempty"`
	// Methods selects the evaluation flavors ("evaluate", "green500");
	// empty selects ["evaluate"].
	Methods []string `json:"methods,omitempty"`
	// Servers are built-in Table I server names; empty sweeps all of them.
	Servers []string `json:"servers,omitempty"`
	// FaultProfiles are fault-injection profile names ("none", "light",
	// "heavy"); empty selects ["none"].
	FaultProfiles []string `json:"fault_profiles,omitempty"`
	// Seeds lists explicit seeds; mutually exclusive with SeedRange.
	Seeds []float64 `json:"seeds,omitempty"`
	// SeedRange generates seeds arithmetically; mutually exclusive with
	// Seeds. When both are empty the campaign uses seed 1.
	SeedRange *SeedRange `json:"seed_range,omitempty"`
	// Retry bounds per-point attempts (zero value: 3 attempts, no backoff).
	Retry RetrySpec `json:"retry,omitempty"`
	// QuarantineAfter parks a point as poisoned after this many consecutive
	// failed attempts instead of wedging the campaign (0 selects the retry
	// attempt budget, i.e. one full dispatch).
	QuarantineAfter int `json:"quarantine_after,omitempty"`
	// PointTimeoutMS bounds each point's execution (0 = the service
	// ceiling).
	PointTimeoutMS int `json:"point_timeout_ms,omitempty"`
	// DeadlineMS bounds the whole campaign from acceptance; past it the
	// remaining points are cancelled (0 = no deadline).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// methods returns the effective method list.
func (s *SweepSpec) methods() []string {
	if len(s.Methods) == 0 {
		return []string{"evaluate"}
	}
	return s.Methods
}

// servers returns the effective server-name list.
func (s *SweepSpec) servers() []string {
	if len(s.Servers) == 0 {
		return server.Names()
	}
	return s.Servers
}

// profiles returns the effective fault-profile list.
func (s *SweepSpec) profiles() []string {
	if len(s.FaultProfiles) == 0 {
		return []string{"none"}
	}
	return s.FaultProfiles
}

// seeds returns the effective seed list.
func (s *SweepSpec) seeds() []float64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	if s.SeedRange != nil {
		out := make([]float64, int(s.SeedRange.span()))
		for i := range out {
			out[i] = s.SeedRange.From + float64(i)*s.SeedRange.Step
		}
		return out
	}
	return []float64{1}
}

// seedCount returns the length of the effective seed list without
// building it, as SeedRange.span counts.
func (s *SweepSpec) seedCount() float64 {
	if len(s.Seeds) > 0 {
		return float64(len(s.Seeds))
	}
	if s.SeedRange != nil {
		return s.SeedRange.span()
	}
	return 1
}

// attempts returns the effective per-dispatch attempt budget.
func (s *SweepSpec) attempts() int {
	if s.Retry.Attempts < 1 {
		return 3
	}
	return s.Retry.Attempts
}

// quarantineAfter returns the consecutive-failure threshold that parks a
// point as poisoned.
func (s *SweepSpec) quarantineAfter() int {
	if s.QuarantineAfter < 1 {
		return s.attempts()
	}
	return s.QuarantineAfter
}

func (s *SweepSpec) backoff() time.Duration {
	if s.Retry.BackoffMS < 0 {
		return 0
	}
	return time.Duration(s.Retry.BackoffMS) * time.Millisecond
}

// Validate checks every axis of the spec and returns a *FieldError naming
// the first offending field. maxPoints bounds the expanded campaign size
// (0 selects 10000).
func (s *SweepSpec) Validate(maxPoints int) error {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	for i, m := range s.methods() {
		switch m {
		case "evaluate", "green500":
		default:
			return fieldErrf(fmt.Sprintf("methods[%d]", i),
				"unknown method %q (want evaluate or green500)", m)
		}
	}
	for i, name := range s.servers() {
		if _, err := server.ByName(name); err != nil {
			return fieldErrf(fmt.Sprintf("servers[%d]", i), "%v", err)
		}
	}
	for i, p := range s.profiles() {
		if _, err := fault.Parse(p); err != nil {
			return fieldErrf(fmt.Sprintf("fault_profiles[%d]", i), "%v", err)
		}
	}
	if len(s.Seeds) > 0 && s.SeedRange != nil {
		return fieldErrf("seeds", "seeds and seed_range are mutually exclusive; choose one")
	}
	for i, seed := range s.Seeds {
		if math.IsNaN(seed) || math.IsInf(seed, 0) {
			return fieldErrf(fmt.Sprintf("seeds[%d]", i), "seed must be finite")
		}
	}
	if r := s.SeedRange; r != nil {
		if !(r.Step > 0) {
			return fieldErrf("seed_range.step", "step must be positive, got %g", r.Step)
		}
		if !(r.To >= r.From) {
			return fieldErrf("seed_range.to", "to (%g) is below from (%g)", r.To, r.From)
		}
	}
	if s.Retry.Attempts < 0 {
		return fieldErrf("retry.attempts", "attempts must be non-negative")
	}
	if s.Retry.BackoffMS < 0 {
		return fieldErrf("retry.backoff_ms", "backoff_ms must be non-negative")
	}
	if s.QuarantineAfter < 0 {
		return fieldErrf("quarantine_after", "quarantine_after must be non-negative")
	}
	if s.PointTimeoutMS < 0 {
		return fieldErrf("point_timeout_ms", "point_timeout_ms must be non-negative")
	}
	if s.DeadlineMS < 0 {
		return fieldErrf("deadline_ms", "deadline_ms must be non-negative")
	}
	// Counted in float64 and before any seed list is built: a seed range
	// can name more points than an int holds or memory fits.
	n := float64(len(s.methods())) * float64(len(s.servers())) * float64(len(s.profiles())) * s.seedCount()
	if n == 0 {
		return fieldErrf("seed_range", "spec expands to zero points")
	}
	if n > float64(maxPoints) {
		return fieldErrf("seeds", "spec expands to %.0f points, above the campaign bound %d", n, maxPoints)
	}
	return nil
}

// DefaultMaxPoints bounds a campaign's expansion when the operator sets no
// explicit -max-campaign-points.
const DefaultMaxPoints = 10000

// Point is one expanded evaluation of a campaign. Its Key is the serve
// layer's content-addressed cache key, so a recovered or repeated point is
// a cache hit, never a second computation.
type Point struct {
	Index   int     `json:"index"`
	Method  string  `json:"method"`
	Server  string  `json:"server"`
	Seed    float64 `json:"seed"`
	Profile string  `json:"profile"`
	Key     string  `json:"key"`
}

// Expand derives the campaign's point list from the spec: the cross
// product methods × servers × fault_profiles × seeds in declared nesting
// order. Expansion is deterministic, so recovery re-derives the identical
// list from the journaled spec. The caller must have validated the spec.
func (s *SweepSpec) Expand() []Point {
	methods, servers, profiles, seeds := s.methods(), s.servers(), s.profiles(), s.seeds()
	points := make([]Point, 0, len(methods)*len(servers)*len(profiles)*len(seeds))
	for _, m := range methods {
		for _, name := range servers {
			for _, prof := range profiles {
				canon := prof
				if canon == "" {
					canon = "none"
				}
				for _, seed := range seeds {
					key, unknown := core.BuiltinResultKey(m, seed, canon, name)
					if unknown >= 0 {
						continue // unreachable after Validate; skip rather than panic
					}
					points = append(points, Point{
						Index:   len(points),
						Method:  m,
						Server:  name,
						Seed:    seed,
						Profile: canon,
						Key:     key,
					})
				}
			}
		}
	}
	return points
}

// ID returns the campaign's content-addressed identity: a stable hash of
// every axis of the spec. Submitting the same spec twice therefore names
// the same campaign — the submission analogue of the result cache — and
// the WAL can dededuplicate replayed accept records by id alone.
func (s *SweepSpec) ID() string {
	h := sha256.New()
	ws := func(v string) { fmt.Fprintf(h, "%d:%s;", len(v), v) }
	ws("powerbench-campaign-v1")
	ws(s.Name)
	ws(s.Client)
	ws(strconv.Itoa(s.Priority))
	writeList(h, s.methods())
	writeList(h, s.servers())
	writeList(h, s.profiles())
	for _, seed := range s.seeds() {
		ws(strconv.FormatFloat(seed, 'g', -1, 64))
	}
	ws(strconv.Itoa(s.attempts()))
	ws(strconv.Itoa(s.Retry.BackoffMS))
	ws(strconv.Itoa(s.quarantineAfter()))
	ws(strconv.Itoa(s.PointTimeoutMS))
	ws(strconv.Itoa(s.DeadlineMS))
	return "c" + hex.EncodeToString(h.Sum(nil))[:16]
}

func writeList(w io.Writer, items []string) {
	fmt.Fprintf(w, "%d[", len(items))
	for _, it := range items {
		fmt.Fprintf(w, "%d:%s;", len(it), it)
	}
	fmt.Fprint(w, "]")
}
