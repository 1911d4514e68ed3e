package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"powerbench/internal/obs"
)

// Executor computes one point: it returns the marshaled response body,
// whether it was served from cache, and the terminal error if the point
// failed. The serve layer supplies the real pipeline; tests inject
// failures.
type Executor func(ctx context.Context, pt Point) (body []byte, cached bool, err error)

// Warmer receives each recovered point result (key → exact response
// bytes) during WAL replay, so the serve layer can pre-warm its
// content-addressed cache before the first request lands.
type Warmer func(key string, body []byte)

// Config sizes the campaign manager. Exec is required; everything else
// has working defaults.
type Config struct {
	// Obs receives the jobs telemetry (nil disables it).
	Obs *obs.Obs
	// Dir is the WAL directory; empty runs the manager volatile (no
	// durability, campaigns die with the process).
	Dir string
	// Workers bounds concurrently executing points (0 selects 2).
	Workers int
	// MaxPoints bounds one campaign's expansion (0 selects 10000).
	MaxPoints int
	// FsyncEvery is the group-commit cadence (0 selects 5ms; negative
	// fsyncs every append — the tests' torn-write harness needs that).
	FsyncEvery time.Duration
	// MaxPointTimeout is the ceiling on per-point execution time (0
	// selects 60s); specs may only tighten it via point_timeout_ms.
	MaxPointTimeout time.Duration
	// Exec computes points.
	Exec Executor
	// Warm receives recovered results during Open (nil drops them; the
	// executor will recompute on a cache miss, so recovery stays correct,
	// just slower).
	Warm Warmer
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

func (c Config) maxPoints() int {
	if c.MaxPoints > 0 {
		return c.MaxPoints
	}
	return DefaultMaxPoints
}

func (c Config) maxPointTimeout() time.Duration {
	if c.MaxPointTimeout > 0 {
		return c.MaxPointTimeout
	}
	return 60 * time.Second
}

// Campaign and point states, as reported in statuses and journaled in the
// WAL.
const (
	StateAccepted    = "accepted"
	StateRunning     = "running"
	StateDone        = "done"
	StateCancelled   = "cancelled"
	StatePending     = "pending"
	StatePointDone   = "done"
	StateQuarantined = "quarantined"
)

// point is the manager's mutable view of one expanded Point.
type point struct {
	Point
	state     string
	attempts  int // lifetime attempts consumed
	fails     int // consecutive failures (reset on success)
	lastErr   string
	resultSHA string
	cached    bool
	// bodyForCompaction holds the replayed result bytes between rebuild
	// and boot-time compaction only; live completions never retain bodies
	// (the WAL and the serve cache own them).
	bodyForCompaction []byte
}

// campaign is the manager's state for one accepted sweep.
type campaign struct {
	id          string
	seq         int64 // acceptance order, the fair-queue FIFO tiebreaker
	spec        *SweepSpec
	state       string
	reason      string // terminal detail ("deadline", "client request")
	submitted   int64  // unix seconds at acceptance (journaled; deadlines are absolute)
	points      []*point
	cursor      int // next candidate index for pending-point scans
	queued      bool
	running     int
	done        int
	quarantined int
	cancelled   int
	computed    int
	cachedHits  int
	ctx         context.Context
	cancel      context.CancelFunc
	subs        []chan Event
}

func (c *campaign) terminal() bool {
	return c.state == StateDone || c.state == StateCancelled
}

// nextPending returns the next pending point, advancing the cursor; nil
// when none remain. Requeued points (retry passes) rewind the cursor, so
// the scan stays O(total) amortized per pass.
func (c *campaign) nextPending() *point {
	for ; c.cursor < len(c.points); c.cursor++ {
		if c.points[c.cursor].state == StatePending {
			pt := c.points[c.cursor]
			c.cursor++
			return pt
		}
	}
	return nil
}

// pendingCount derives the pending total from the terminal-state
// counters, so dispatch never rescans the point list.
func (c *campaign) pendingCount() int {
	return len(c.points) - c.done - c.quarantined - c.cancelled - c.running
}

// Event is one campaign progress notification, streamed over SSE.
type Event struct {
	Type     string `json:"type"`
	Campaign string `json:"campaign"`
	State    string `json:"state"`
	// Point is set on point-level events.
	Point  *PointStatus `json:"point,omitempty"`
	Counts Counts       `json:"counts"`
	Error  string       `json:"error,omitempty"`
}

// Counts summarizes a campaign's point states.
type Counts struct {
	Total       int `json:"total"`
	Pending     int `json:"pending"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Quarantined int `json:"quarantined"`
	Cancelled   int `json:"cancelled"`
	// Computed and Cached split the done points by how they were served;
	// the chaos gate's "zero duplicate computations" assertion reads these.
	Computed int `json:"computed"`
	Cached   int `json:"cached"`
}

// PointStatus is one point's externally visible state.
type PointStatus struct {
	Index     int     `json:"index"`
	Method    string  `json:"method"`
	Server    string  `json:"server"`
	Seed      float64 `json:"seed"`
	Profile   string  `json:"profile"`
	Key       string  `json:"key"`
	State     string  `json:"state"`
	Attempts  int     `json:"attempts,omitempty"`
	Error     string  `json:"error,omitempty"`
	ResultSHA string  `json:"result_sha,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
}

// CampaignStatus is the GET /v1/jobs/{id} body.
type CampaignStatus struct {
	ID        string `json:"id"`
	Name      string `json:"name,omitempty"`
	Client    string `json:"client"`
	Priority  int    `json:"priority"`
	State     string `json:"state"`
	Reason    string `json:"reason,omitempty"`
	Submitted int64  `json:"submitted_unix"`
	Counts    Counts `json:"counts"`
	// Quarantined lists the parked poison points with their last errors.
	Quarantined []PointStatus `json:"quarantined,omitempty"`
	// Points carries the full per-point table when requested.
	Points []PointStatus `json:"points,omitempty"`
}

// Summary is one row of GET /v1/jobs.
type Summary struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Client   string `json:"client"`
	Priority int    `json:"priority"`
	State    string `json:"state"`
	Counts   Counts `json:"counts"`
}

// Health is the jobs block of /healthz and of the fleet overview.
type Health struct {
	QueueDepth      int `json:"queue_depth"`
	ActiveCampaigns int `json:"active_campaigns"`
	// TotalPoints/DonePoints are the sweep progress of the non-terminal
	// campaigns, so a fleet rollup can report cluster-wide campaign
	// progress without polling every campaign on every shard.
	TotalPoints       int  `json:"total_points"`
	DonePoints        int  `json:"done_points"`
	WALSegments       int  `json:"wal_segments"`
	ReadOnly          bool `json:"read_only"`
	QuarantinedPoints int  `json:"quarantined_points"`
}

// Recovery summarizes what Open replayed from the WAL.
type Recovery struct {
	Records        int
	Campaigns      int
	Resumed        int
	DonePoints     int
	TruncatedBytes int64
	Corrupt        bool
}

// ErrReadOnly rejects submissions while the WAL is degraded.
var ErrReadOnly = errWALReadOnly

// ErrNotFound reports an unknown campaign id.
var ErrNotFound = errors.New("jobs: no such campaign")

// Manager owns the campaign state machines, the fair-share queue, the
// worker pool and the WAL.
type Manager struct {
	cfg  Config
	obs  *obs.Obs
	exec Executor
	wal  *wal

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*campaign
	order     []string
	queue     *fairQueue
	nextSeq   int64
	stopped   bool

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// Open builds a manager, replaying and compacting the WAL when cfg.Dir is
// set. Workers do not run until Start.
func Open(cfg Config) (*Manager, *Recovery, error) {
	if cfg.Exec == nil {
		return nil, nil, errors.New("jobs: Config.Exec is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:       cfg,
		obs:       cfg.Obs,
		exec:      cfg.Exec,
		campaigns: make(map[string]*campaign),
		queue:     newFairQueue(),
		baseCtx:   ctx,
		cancel:    cancel,
	}
	m.cond = sync.NewCond(&m.mu)
	rec := &Recovery{}
	if cfg.Dir == "" {
		return m, rec, nil
	}
	replay, err := replayDir(cfg.Dir, cfg.Obs)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("jobs: WAL replay: %w", err)
	}
	rec.Records = len(replay.records)
	rec.TruncatedBytes = replay.truncatedBytes
	rec.Corrupt = replay.corrupt
	m.rebuild(replay.records, cfg.Warm, rec)
	lastSeq, segments := replay.lastSeq, replay.segments
	if !replay.corrupt && len(replay.records) > 0 {
		if seq, segs, cerr := compact(cfg.Dir, m.liveRecords(), lastSeq, cfg.Obs); cerr == nil {
			lastSeq, segments = seq, segs
		} else {
			cfg.Obs.Infof("jobs WAL: compaction skipped: %v", cerr)
		}
	}
	// The replayed bodies have served their purpose (cache warm +
	// compaction); drop them so a long-lived daemon doesn't shadow the
	// result cache in manager memory.
	for _, c := range m.campaigns {
		for _, pt := range c.points {
			pt.bodyForCompaction = nil
		}
	}
	w, err := openWAL(cfg.Dir, segmentBytes, cfg.FsyncEvery, lastSeq, segments, cfg.Obs)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("jobs: WAL open: %w", err)
	}
	if replay.corrupt {
		w.setReadOnly()
	}
	m.wal = w
	m.publishGauges()
	return m, rec, nil
}

// rebuild reconstructs campaign state from a replayed record stream. The
// WAL is the single source of truth: records are applied in journal
// order, later records win, and anything not journaled as done is pending
// again (re-execution is idempotent by content-addressing).
func (m *Manager) rebuild(records []*walRecord, warm Warmer, rec *Recovery) {
	for _, r := range records {
		switch r.Type {
		case recAccepted:
			if r.Spec == nil || r.Campaign == "" {
				continue
			}
			if _, ok := m.campaigns[r.Campaign]; ok {
				continue // compaction duplicate; first wins
			}
			if err := r.Spec.Validate(m.cfg.maxPoints()); err != nil {
				m.obs.Infof("jobs WAL: dropping campaign %s with invalid spec: %v", r.Campaign, err)
				continue
			}
			m.addCampaign(r.Campaign, r.Spec, r.Unix)
		case recDone:
			c, pt := m.lookup(r.Campaign, r.Point)
			if pt == nil || pt.state == StatePointDone {
				// Unknown point or a duplicate done record: never resurrect
				// (or double-count) a completed point.
				continue
			}
			m.setDone(c, pt, r.Body, r.Cached, false)
			if warm != nil && len(r.Body) > 0 {
				warm(pt.Key, r.Body)
			}
			rec.DonePoints++
		case recFailed:
			_, pt := m.lookup(r.Campaign, r.Point)
			if pt == nil || pt.state != StatePending {
				continue
			}
			pt.fails++
			pt.attempts++
			pt.lastErr = r.Err
		case recQuarantined:
			c, pt := m.lookup(r.Campaign, r.Point)
			if pt == nil || pt.state != StatePending {
				continue
			}
			pt.state = StateQuarantined
			pt.lastErr = r.Err
			c.quarantined++
		case recCampDone:
			if c := m.campaigns[r.Campaign]; c != nil {
				c.state = StateDone
			}
		case recCancelled:
			if c := m.campaigns[r.Campaign]; c != nil && !c.terminal() {
				c.state = StateCancelled
				c.reason = r.Reason
				for _, pt := range c.points {
					if pt.state == StatePending {
						pt.state = StateCancelled
						c.cancelled++
					}
				}
			}
		case recPurged:
			if _, ok := m.campaigns[r.Campaign]; ok {
				delete(m.campaigns, r.Campaign)
				for i, id := range m.order {
					if id == r.Campaign {
						m.order = append(m.order[:i], m.order[i+1:]...)
						break
					}
				}
			}
		case recStarted, recExpanded, recCheckpoint:
			// Pure progress markers: a started-but-not-done point is simply
			// pending again.
		}
	}
	rec.Campaigns = len(m.campaigns)
	// Re-enqueue every campaign with pending work.
	for _, id := range m.order {
		c := m.campaigns[id]
		if c.terminal() {
			continue
		}
		if c.pendingCount() == 0 {
			// All points reached a terminal state but the campaign-done
			// record was lost to the crash: close it out now.
			c.state = StateDone
			continue
		}
		c.state = StateRunning
		rec.Resumed++
		m.enqueueLocked(c)
	}
	if rec.Resumed > 0 {
		m.obs.Counter("jobs_campaigns_recovered_total").Add(int64(rec.Resumed))
	}
}

// liveRecords renders the current state as a minimal record stream for
// compaction: acceptance, terminal point outcomes, terminal campaign
// states. In-flight detail (started/failed counters) is deliberately
// dropped — it only modulates retry budgets, and a fresh pass is the
// safer default after a restart.
func (m *Manager) liveRecords() []*walRecord {
	var recs []*walRecord
	for _, id := range m.order {
		c := m.campaigns[id]
		recs = append(recs, &walRecord{Type: recAccepted, Campaign: c.id, Spec: c.spec, Unix: c.submitted})
		for _, pt := range c.points {
			switch pt.state {
			case StatePointDone:
				recs = append(recs, &walRecord{Type: recDone, Campaign: c.id, Point: pt.Index, Cached: pt.cached, Body: pt.bodyForCompaction})
			case StateQuarantined:
				recs = append(recs, &walRecord{Type: recQuarantined, Campaign: c.id, Point: pt.Index, Err: pt.lastErr})
			}
		}
		switch c.state {
		case StateDone:
			recs = append(recs, &walRecord{Type: recCampDone, Campaign: c.id})
		case StateCancelled:
			recs = append(recs, &walRecord{Type: recCancelled, Campaign: c.id, Reason: c.reason})
		}
	}
	return recs
}

// addCampaign creates and indexes a campaign (caller context: rebuild or
// Submit under mu).
func (m *Manager) addCampaign(id string, spec *SweepSpec, submitted int64) *campaign {
	ctx, cancel := context.WithCancel(m.baseCtx)
	c := &campaign{
		id:        id,
		seq:       m.nextSeq,
		spec:      spec,
		state:     StateAccepted,
		submitted: submitted,
		ctx:       ctx,
		cancel:    cancel,
	}
	m.nextSeq++
	expanded := spec.Expand()
	c.points = make([]*point, len(expanded))
	for i := range expanded {
		c.points[i] = &point{Point: expanded[i], state: StatePending}
	}
	m.campaigns[id] = c
	m.order = append(m.order, id)
	return c
}

func (m *Manager) lookup(id string, idx int) (*campaign, *point) {
	c := m.campaigns[id]
	if c == nil || idx < 0 || idx >= len(c.points) {
		return nil, nil
	}
	return c, c.points[idx]
}

// Start launches the worker pool.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.stopped {
		return
	}
	m.started = true
	for i := 0; i < m.cfg.workers(); i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Submit validates and accepts a sweep. Submission is idempotent on the
// spec's content address: re-submitting an already known spec returns the
// existing campaign (created=false) — the job-queue analogue of the
// result cache, and what makes "resubmit after crash" safe by default.
func (m *Manager) Submit(spec *SweepSpec) (st *CampaignStatus, created bool, err error) {
	if err := spec.Validate(m.cfg.maxPoints()); err != nil {
		return nil, false, err
	}
	id := spec.ID()
	m.mu.Lock()
	if c, ok := m.campaigns[id]; ok {
		st := m.statusLocked(c, false)
		m.mu.Unlock()
		return st, false, nil
	}
	if m.wal.ReadOnly() {
		m.mu.Unlock()
		return nil, false, ErrReadOnly
	}
	if m.stopped {
		m.mu.Unlock()
		return nil, false, errors.New("jobs: manager is shut down")
	}
	c := m.addCampaign(id, spec, time.Now().Unix())
	c.state = StateRunning
	m.mu.Unlock()

	// Acceptance must be durable before the caller sees 202 — this is the
	// one transition a client cannot safely repeat-and-pray on, since a
	// lost accept loses the whole campaign.
	if err := m.wal.AppendSync(&walRecord{Type: recAccepted, Campaign: id, Spec: spec, Unix: c.submitted}); err != nil {
		m.mu.Lock()
		delete(m.campaigns, id)
		if n := len(m.order); n > 0 && m.order[n-1] == id {
			m.order = m.order[:n-1]
		}
		m.mu.Unlock()
		return nil, false, err
	}
	_ = m.wal.Append(&walRecord{Type: recExpanded, Campaign: id, Points: len(c.points)})
	m.obs.Counter("jobs_campaigns_accepted_total").Inc()

	m.mu.Lock()
	m.enqueueLocked(c)
	st = m.statusLocked(c, false)
	m.publishGauges()
	m.mu.Unlock()
	m.publish(c, Event{Type: "campaign_accepted"})
	m.cond.Broadcast()
	return st, true, nil
}

// enqueueLocked places a campaign with pending work into the fair queue.
func (m *Manager) enqueueLocked(c *campaign) {
	if c.queued || c.terminal() {
		return
	}
	c.queued = true
	m.queue.push(c)
}

// Cancel cancels a live campaign; in-flight points unwind via context and
// pending ones park as cancelled.
func (m *Manager) Cancel(id, reason string) (*CampaignStatus, error) {
	m.mu.Lock()
	c := m.campaigns[id]
	if c == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if c.terminal() {
		st := m.statusLocked(c, false)
		m.mu.Unlock()
		return st, nil
	}
	m.cancelLocked(c, reason)
	st := m.statusLocked(c, false)
	m.publishGauges()
	m.mu.Unlock()
	m.publish(c, Event{Type: "campaign_cancelled"})
	m.closeSubs(c)
	return st, nil
}

// cancelLocked is the shared cancellation path (client request, campaign
// deadline).
func (m *Manager) cancelLocked(c *campaign, reason string) {
	c.state = StateCancelled
	c.reason = reason
	if c.queued {
		m.queue.remove(c)
		c.queued = false
	}
	for _, pt := range c.points {
		if pt.state == StatePending {
			pt.state = StateCancelled
			c.cancelled++
		}
	}
	c.cancel()
	_ = m.wal.Append(&walRecord{Type: recCancelled, Campaign: c.id, Reason: reason})
	m.obs.Counter("jobs_campaigns_cancelled_total").Inc()
}

// Purge removes a terminal campaign's state (and journals the removal so
// recovery agrees).
func (m *Manager) Purge(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.campaigns[id]
	if c == nil {
		return ErrNotFound
	}
	if !c.terminal() {
		return fmt.Errorf("jobs: campaign %s is %s; cancel it before purging", id, c.state)
	}
	delete(m.campaigns, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	_ = m.wal.Append(&walRecord{Type: recPurged, Campaign: id})
	m.publishGauges()
	return nil
}

// Status returns one campaign's state; points requests the full per-point
// table.
func (m *Manager) Status(id string, points bool) (*CampaignStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.campaigns[id]
	if c == nil {
		return nil, ErrNotFound
	}
	return m.statusLocked(c, points), nil
}

// List returns every campaign in acceptance order.
func (m *Manager) List() []Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Summary, 0, len(m.order))
	for _, id := range m.order {
		c := m.campaigns[id]
		out = append(out, Summary{
			ID: c.id, Name: c.spec.Name, Client: c.clientName(),
			Priority: c.spec.Priority, State: c.state, Counts: m.countsLocked(c),
		})
	}
	return out
}

func (c *campaign) clientName() string {
	if c.spec.Client == "" {
		return "default"
	}
	return c.spec.Client
}

func (m *Manager) countsLocked(c *campaign) Counts {
	return Counts{
		Total:       len(c.points),
		Pending:     len(c.points) - c.done - c.quarantined - c.cancelled - c.running,
		Running:     c.running,
		Done:        c.done,
		Quarantined: c.quarantined,
		Cancelled:   c.cancelled,
		Computed:    c.computed,
		Cached:      c.cachedHits,
	}
}

func pointStatus(pt *point) PointStatus {
	return PointStatus{
		Index: pt.Index, Method: pt.Method, Server: pt.Server, Seed: pt.Seed,
		Profile: pt.Profile, Key: pt.Key, State: pt.state, Attempts: pt.attempts,
		Error: pt.lastErr, ResultSHA: pt.resultSHA, Cached: pt.cached,
	}
}

func (m *Manager) statusLocked(c *campaign, points bool) *CampaignStatus {
	st := &CampaignStatus{
		ID: c.id, Name: c.spec.Name, Client: c.clientName(), Priority: c.spec.Priority,
		State: c.state, Reason: c.reason, Submitted: c.submitted, Counts: m.countsLocked(c),
	}
	for _, pt := range c.points {
		if pt.state == StateQuarantined {
			st.Quarantined = append(st.Quarantined, pointStatus(pt))
		}
	}
	if points {
		st.Points = make([]PointStatus, len(c.points))
		for i, pt := range c.points {
			st.Points[i] = pointStatus(pt)
		}
	}
	return st
}

// Health reports the jobs block of /healthz.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{WALSegments: m.wal.Segments(), ReadOnly: m.wal.ReadOnly()}
	for _, c := range m.campaigns {
		if !c.terminal() {
			h.ActiveCampaigns++
			h.QueueDepth += len(c.points) - c.done - c.quarantined - c.cancelled - c.running
			h.TotalPoints += len(c.points)
			h.DonePoints += c.done
		}
		h.QuarantinedPoints += c.quarantined
	}
	return h
}

func (m *Manager) publishGauges() {
	depth, active := 0, 0
	for _, c := range m.campaigns {
		if !c.terminal() {
			active++
			depth += len(c.points) - c.done - c.quarantined - c.cancelled - c.running
		}
	}
	m.obs.Gauge("jobs_queue_depth").Set(float64(depth))
	m.obs.Gauge("jobs_active_campaigns").Set(float64(active))
	if m.wal != nil {
		m.obs.Gauge("jobs_wal_segments").Set(float64(m.wal.Segments()))
	}
}

// Subscribe attaches a progress listener to a campaign. The channel
// closes when the campaign reaches a terminal state (or on cancel()).
// Slow subscribers drop events rather than block the workers.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.campaigns[id]
	if c == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, 256)
	if c.terminal() {
		// Already settled: deliver one terminal snapshot and close.
		ch <- Event{Type: "campaign_" + c.state, Campaign: c.id, State: c.state, Counts: m.countsLocked(c)}
		close(ch)
		return ch, func() {}, nil
	}
	c.subs = append(c.subs, ch)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, sub := range c.subs {
			if sub == ch {
				c.subs = append(c.subs[:i], c.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, cancel, nil
}

// publish fans an event out to the campaign's subscribers.
func (m *Manager) publish(c *campaign, ev Event) {
	m.mu.Lock()
	ev.Campaign = c.id
	ev.State = c.state
	ev.Counts = m.countsLocked(c)
	subs := make([]chan Event, len(c.subs))
	copy(subs, c.subs)
	m.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
			m.obs.Counter("jobs_events_dropped_total").Inc()
		}
	}
}

// closeSubs detaches and closes every subscriber (terminal transition).
func (m *Manager) closeSubs(c *campaign) {
	m.mu.Lock()
	subs := c.subs
	c.subs = nil
	m.mu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// --- worker pool ---

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		c, pt := m.nextPoint()
		if c == nil {
			return
		}
		m.runPoint(c, pt)
	}
}

// nextPoint blocks until a point is dispatchable or the manager stops.
func (m *Manager) nextPoint() (*campaign, *point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.stopped {
			return nil, nil
		}
		for {
			c := m.queue.pop()
			if c == nil {
				break
			}
			c.queued = false
			if c.terminal() {
				continue
			}
			if m.deadlinePassedLocked(c) {
				cc := c
				m.cancelLocked(cc, "deadline exceeded")
				go func() {
					m.publish(cc, Event{Type: "campaign_cancelled", Error: "deadline exceeded"})
					m.closeSubs(cc)
				}()
				continue
			}
			pt := c.nextPending()
			if pt == nil {
				continue
			}
			pt.state = StateRunning
			c.running++
			if c.pendingCount() > 0 {
				m.enqueueLocked(c)
			}
			m.publishGauges()
			return c, pt
		}
		m.cond.Wait()
	}
}

func (m *Manager) deadlinePassedLocked(c *campaign) bool {
	if c.spec.DeadlineMS <= 0 {
		return false
	}
	deadline := time.Unix(c.submitted, 0).Add(time.Duration(c.spec.DeadlineMS) * time.Millisecond)
	return time.Now().After(deadline)
}

// runPoint executes one dispatch of a point: up to the spec's attempt
// budget (bounded further by the distance to quarantine), with capped
// exponential backoff and deterministic ±50% jitter between attempts.
func (m *Manager) runPoint(c *campaign, pt *point) {
	_ = m.wal.Append(&walRecord{Type: recStarted, Campaign: c.id, Point: pt.Index})
	m.publish(c, Event{Type: "point_started", Point: ptr(pointStatus(pt))})

	quarantineAfter := c.spec.quarantineAfter()
	budget := c.spec.attempts()
	if rem := quarantineAfter - pt.fails; rem < budget {
		budget = rem
	}
	if budget < 1 {
		budget = 1
	}
	timeout := m.cfg.maxPointTimeout()
	if t := time.Duration(c.spec.PointTimeoutMS) * time.Millisecond; c.spec.PointTimeoutMS > 0 && t < timeout {
		timeout = t
	}

	var body []byte
	var cached bool
	var err error
	for a := 1; a <= budget; a++ {
		if a > 1 {
			m.obs.Counter("jobs_point_retries_total").Inc()
			if !m.sleepBackoff(c, pt, a) {
				break // shutdown or campaign cancellation mid-backoff
			}
		}
		actx, acancel := context.WithTimeout(c.ctx, timeout)
		body, cached, err = m.exec(actx, pt.Point)
		acancel()
		m.mu.Lock()
		pt.attempts++
		m.mu.Unlock()
		if err == nil {
			break
		}
		m.mu.Lock()
		pt.fails++
		pt.lastErr = err.Error()
		fails := pt.fails
		m.mu.Unlock()
		_ = m.wal.Append(&walRecord{Type: recFailed, Campaign: c.id, Point: pt.Index, Attempt: fails, Err: err.Error()})
		m.obs.Counter("jobs_points_failed_total").Inc()
		m.publish(c, Event{Type: "point_failed", Point: ptr(pointStatus(pt)), Error: err.Error()})
		if c.ctx.Err() != nil || fails >= quarantineAfter {
			break
		}
	}

	m.mu.Lock()
	c.running--
	switch {
	case err == nil:
		m.setDone(c, pt, body, cached, true)
	case c.terminal() || c.ctx.Err() != nil:
		// Campaign was cancelled while this point was in flight; park the
		// point as cancelled without burning its retry budget.
		pt.state = StateCancelled
		c.cancelled++
	case pt.fails >= c.spec.quarantineAfter():
		// Poison point: park it with its last error instead of wedging the
		// campaign in an endless retry loop.
		pt.state = StateQuarantined
		c.quarantined++
		_ = m.wal.Append(&walRecord{Type: recQuarantined, Campaign: c.id, Point: pt.Index, Err: pt.lastErr})
		m.obs.Counter("jobs_points_quarantined_total").Inc()
	default:
		// Budget exhausted but below the quarantine threshold: back to the
		// queue for another pass.
		pt.state = StatePending
		if c.cursor > pt.Index {
			c.cursor = pt.Index
		}
		m.enqueueLocked(c)
	}
	finished := m.maybeFinishLocked(c)
	// Snapshot under the lock: a requeued point may be redispatched by
	// another worker the moment the lock drops.
	finalState := pt.state
	snap := pointStatus(pt)
	m.publishGauges()
	m.mu.Unlock()

	switch finalState {
	case StatePointDone:
		m.publish(c, Event{Type: "point_done", Point: &snap})
	case StateQuarantined:
		m.publish(c, Event{Type: "point_quarantined", Point: &snap, Error: snap.Error})
	}
	if finished {
		_ = m.wal.Append(&walRecord{Type: recCampDone, Campaign: c.id})
		m.obs.Counter("jobs_campaigns_done_total").Inc()
		m.publish(c, Event{Type: "campaign_done"})
		m.closeSubs(c)
	}
	m.cond.Broadcast()
}

// setDone marks a point completed. live=false is the recovery path (no
// WAL write — the record being applied IS the journal entry).
func (m *Manager) setDone(c *campaign, pt *point, body []byte, cached bool, live bool) {
	pt.state = StatePointDone
	pt.fails = 0
	pt.cached = cached
	sum := sha256.Sum256(body)
	pt.resultSHA = hex.EncodeToString(sum[:])
	if !live {
		pt.bodyForCompaction = body
	}
	c.done++
	if cached {
		c.cachedHits++
	} else {
		c.computed++
	}
	if live {
		_ = m.wal.Append(&walRecord{Type: recDone, Campaign: c.id, Point: pt.Index, Cached: cached, Body: body})
		m.obs.Counter("jobs_points_done_total").Inc()
		if cached {
			m.obs.Counter("jobs_points_cached_total").Inc()
		} else {
			m.obs.Counter("jobs_points_computed_total").Inc()
		}
	}
}

// maybeFinishLocked closes out a campaign whose points have all reached a
// terminal state.
func (m *Manager) maybeFinishLocked(c *campaign) bool {
	if c.terminal() {
		return false
	}
	if c.done+c.quarantined+c.cancelled == len(c.points) && c.running == 0 {
		c.state = StateDone
		return true
	}
	return false
}

// sleepBackoff waits the capped-exponential, jittered delay before
// attempt a; it returns false if the campaign or manager died first.
func (m *Manager) sleepBackoff(c *campaign, pt *point, a int) bool {
	base := c.spec.backoff()
	if base <= 0 {
		return c.ctx.Err() == nil
	}
	shift := a - 2
	if shift > 4 {
		shift = 4
	}
	d := base << uint(shift)
	// Deterministic jitter in [0.5, 1.5): identity-derived like every
	// other random draw in the pipeline, so retry schedules are
	// reproducible run to run while still decorrelated across points.
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", c.id, pt.Index, a)
	frac := float64(h.Sum64()%1024) / 1024
	d = time.Duration(float64(d) * (0.5 + frac))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return c.ctx.Err() == nil
	case <-c.ctx.Done():
		return false
	}
}

func ptr[T any](v T) *T { return &v }

// Shutdown drains gracefully: dispatch stops, in-flight points finish and
// journal their outcomes, then the WAL is committed and closed — the
// checkpoint that makes a SIGTERM restart resume exactly where it left
// off. If ctx expires first, in-flight work is cancelled and the WAL
// still commits whatever made it in.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.cond.Broadcast()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		m.cancel()
		<-done
		err = ctx.Err()
	}
	_ = m.wal.Append(&walRecord{Type: recCheckpoint})
	if cerr := m.wal.Close(); err == nil {
		err = cerr
	}
	m.cancel()
	return err
}

// Close cancels everything and closes the WAL.
func (m *Manager) Close() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.cancel()
	m.cond.Broadcast()
	m.wg.Wait()
	_ = m.wal.Close()
}
