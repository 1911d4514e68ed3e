package serve

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent identical computations: all waiters
// for one canonical key — requests, campaign points and peer fetches alike
// — share a single in-flight computation ("flight") and receive the same
// response bytes. The group also owns the abandonment contract — when the
// last waiter gives up (deadline, disconnect, cancelled campaign) the
// flight's context is cancelled so the scheduler stops dispatching its
// pending simulation runs.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*serveFlight
}

// serveFlight is one shared computation.
type serveFlight struct {
	key string
	// done closes when the flight settles; body/status/err are valid
	// after. err is the computation's own error on a failed flight, which
	// the campaign executor journals verbatim.
	done   chan struct{}
	body   []byte
	status int
	err    error
	// cancel aborts the flight's compute context.
	cancel context.CancelFunc
	// waiters counts callers currently waiting on done (guarded by the
	// group mutex).
	waiters int
	settled bool
	// via and peer record how the flight was served: via "peer" with the
	// owning shard's id when cache peering answered, "" for a local
	// compute. Written by the flight runner before settle, read by
	// waiters after done closes (the channel close orders the accesses).
	via  string
	peer string
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*serveFlight)}
}

// join returns the live flight for key with its waiter count raised, or
// nil when none exists and the caller should begin one.
func (g *flightGroup) join(key string) *serveFlight {
	g.mu.Lock()
	defer g.mu.Unlock()
	f := g.flights[key]
	if f != nil {
		f.waiters++
	}
	return f
}

// begin registers a new flight for key with one waiter. The caller must
// have verified (under no lock — begin re-checks) that no flight exists;
// if one appeared in between, begin joins it instead and reports created
// as false, so the caller releases any admission slot it acquired.
func (g *flightGroup) begin(key string, cancel context.CancelFunc) (f *serveFlight, created bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.flights[key]; f != nil {
		f.waiters++
		return f, false
	}
	f = &serveFlight{key: key, done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.flights[key] = f
	return f, true
}

// leave drops one waiter from f. When the last waiter leaves an unsettled
// flight, the flight is abandoned: its context is cancelled (stopping
// pending job dispatch) and it is detached from the group so a later
// identical request starts fresh instead of inheriting the doomed run.
// leave reports whether the flight was abandoned.
func (g *flightGroup) leave(f *serveFlight) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.waiters--
	if f.waiters > 0 || f.settled {
		return false
	}
	f.cancel()
	if g.flights[f.key] == f {
		delete(g.flights, f.key)
	}
	return true
}

// settle publishes the flight's result, detaches it from the group and
// wakes every waiter. Exactly one settle per flight.
func (g *flightGroup) settle(f *serveFlight, status int, body []byte, err error) {
	g.mu.Lock()
	f.status = status
	f.body = body
	f.err = err
	f.settled = true
	if g.flights[f.key] == f {
		delete(g.flights, f.key)
	}
	g.mu.Unlock()
	close(f.done)
}
