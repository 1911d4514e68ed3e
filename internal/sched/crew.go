package sched

import (
	"context"
	"sync"
)

// Helper is work a running job shares with the idle workers of its
// fan-out: a run's meter offers the blocks of readings it has yet to take.
// Help may run on several workers at once and beside the job itself.
type Helper interface {
	// Help claims one piece of the work and does it. It reports false when
	// no piece was left to claim; the crew then calls it no more.
	Help() bool
}

// maxOffers is how many helpers one fan-out holds at once. A fan-out runs
// at most as many jobs as it has workers, and a job offers one helper at a
// time, so only a fan-out of more than maxOffers workers can fill the
// table; a job whose offer finds it full does its work alone.
const maxOffers = 4

// Crew is the idle-worker side of one fan-out that runs on more than one
// worker. A worker that finds no job left to dispatch joins the crew: it
// helps the offers of the fan-out's still-running jobs until every job has
// finished, and only then returns, so no goroutine outlives RunRetry. A
// helper opens no span and bumps no counter: what it does is part of the
// job it helps.
type Crew struct {
	mu   sync.Mutex
	wake sync.Cond
	// running counts the jobs not yet finished.
	running int
	offers  [maxOffers]offer
}

type offer struct {
	h Helper
	// busy counts the workers inside h.Help; spent marks a helper that
	// has nothing left to claim, or that its job is withdrawing.
	busy  int32
	spent bool
}

// crewCtx is a job's context on a crewed fan-out: the fan-out's ctx with
// the crew attached, one allocation for both.
type crewCtx struct {
	context.Context
	crew Crew
}

type crewKey struct{}

func (c *crewCtx) Value(key any) any {
	if key == (crewKey{}) {
		return &c.crew
	}
	return c.Context.Value(key)
}

// withCrew returns the ctx of a fan-out's jobs and the fan-out's crew: for
// more than one worker, ctx with a crew for n jobs attached; otherwise ctx
// itself and no crew.
func withCrew(ctx context.Context, workers, n int) (context.Context, *Crew) {
	if workers < 2 {
		return ctx, nil
	}
	c := &crewCtx{Context: ctx}
	c.crew.wake.L = &c.crew.mu
	c.crew.running = n
	return c, &c.crew
}

// CrewOf returns the crew of the innermost crewed fan-out ctx is a job of:
// nil — which takes no offer — when there is none, as on a nil or
// one-worker pool.
func CrewOf(ctx context.Context) *Crew {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(crewKey{}).(*Crew)
	return c
}

// Offer makes h available to the crew's idle workers and reports whether
// it did: false for a nil crew or a full offer table. A job must Withdraw
// a taken offer before it returns.
func (c *Crew) Offer(h Helper) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.offers {
		if o := &c.offers[i]; o.h == nil && o.busy == 0 {
			*o = offer{h: h}
			c.wake.Broadcast()
			return true
		}
	}
	return false
}

// Withdraw takes h off the crew's offers and returns once no worker is
// inside h.Help, so the job may reuse what h points to.
func (c *Crew) Withdraw(h Helper) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.offers {
		o := &c.offers[i]
		if o.h != h {
			continue
		}
		o.spent = true
		for o.busy > 0 {
			c.wake.Wait()
		}
		o.h = nil
		return
	}
}

// help is an idle worker's loop: it calls the first live offer's Help
// until every job of the fan-out has finished, and sleeps while no offer
// is live.
func (c *Crew) help() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.running > 0 {
		o := c.live()
		if o == nil {
			c.wake.Wait()
			continue
		}
		o.busy++
		h := o.h
		c.mu.Unlock()
		more := h.Help()
		if more && helpHook != nil {
			helpHook()
		}
		c.mu.Lock()
		o.busy--
		if !more {
			o.spent = true
		}
		if o.busy == 0 && o.spent {
			c.wake.Broadcast()
		}
	}
}

// live returns the first offer with work left to claim, or nil.
func (c *Crew) live() *offer {
	for i := range c.offers {
		if o := &c.offers[i]; o.h != nil && !o.spent {
			return o
		}
	}
	return nil
}

// done records that one of the fan-out's jobs has finished.
func (c *Crew) done() {
	c.mu.Lock()
	c.running--
	if c.running == 0 {
		c.wake.Broadcast()
	}
	c.mu.Unlock()
}

// helpHook, when set, is called each time an idle worker's Help call
// did a piece of work; tests set it to see that helping happened.
var helpHook func()
