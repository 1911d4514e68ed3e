package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerbench/internal/tracectx"
)

// piecework is a job's helpable work: pieces 0..n-1, each a pure function
// of (job, piece), claimed by the job and by the idle workers that help
// it, and folded by the job in piece order, as a meter's blocks are.
type piecework struct {
	job    int
	mu     sync.Mutex
	cond   sync.Cond
	next   int
	done   int
	vals   []uint64
	helped *atomic.Int64
}

func newPiecework(job, n int, helped *atomic.Int64) *piecework {
	w := &piecework{job: job, vals: make([]uint64, n), helped: helped}
	w.cond.L = &w.mu
	return w
}

// claim takes the next free piece.
func (w *piecework) claim() (int, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.next >= len(w.vals) {
		return 0, false
	}
	w.next++
	return w.next - 1, true
}

// do computes piece i: a few thousand rounds of a 64-bit mix, so that
// helpers have time to take part.
func (w *piecework) do(i int) {
	v := uint64(w.job)<<32 | uint64(i)
	for r := 0; r < 4000; r++ {
		v ^= v >> 29
		v *= 0xbf58476d1ce4e5b9
	}
	w.vals[i] = v
	w.mu.Lock()
	w.done++
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *piecework) Help() bool {
	i, ok := w.claim()
	if !ok {
		return false
	}
	w.do(i)
	w.helped.Add(1)
	return true
}

// run is the job's side: offer, work beside the helpers, wait for every
// piece, withdraw, fold in order.
func (w *piecework) run(ctx context.Context) uint64 {
	crew := CrewOf(ctx)
	offered := crew.Offer(w)
	for i, ok := w.claim(); ok; i, ok = w.claim() {
		w.do(i)
	}
	w.mu.Lock()
	for w.done < len(w.vals) {
		w.cond.Wait()
	}
	w.mu.Unlock()
	if offered {
		crew.Withdraw(w)
	}
	var h uint64
	for _, v := range w.vals {
		h = h*31 + v
	}
	return h
}

// helpedOutcome is what a helped fan-out returns: results, reports and the
// trace tree's hash.
type helpedOutcome struct {
	results []uint64
	reports []JobReport
	tree    string
}

// runHelped fans out n jobs of uneven size on workers workers: job i has
// 2+8·(i%3) pieces, so short jobs finish early and leave their workers to
// help the long ones. Under retries, job i's first attempt fails for odd
// i after doing its work.
func runHelped(t *testing.T, workers, n int, r Retry, helped *atomic.Int64) helpedOutcome {
	t.Helper()
	tr := tracectx.New(tracectx.DeriveID("helping"), "root", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	results := make([]uint64, n)
	reports := New(workers, nil).RunRetry(ctx, "help", n, r, func(jctx context.Context, i, attempt int) error {
		v := newPiecework(i, 2+8*(i%3), helped).run(jctx)
		if r.Attempts > 1 && attempt == 1 && i%2 == 1 {
			return fmt.Errorf("transient failure of job %d", i)
		}
		results[i] = v
		return nil
	})
	tr.Root().End()
	return helpedOutcome{results: results, reports: reports, tree: tr.Export().TreeHash}
}

// goroutinesBack waits briefly for the goroutine count to fall back to
// base: a worker calls wg.Done before it exits, so RunRetry may return a
// moment before the last worker is gone.
func goroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunRetry returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestHelpingDeterministicAcrossWorkers: a fan-out whose idle workers help
// its running jobs returns the same results, reports and trace tree at 1,
// 2 and 8 workers, with and without retries, and leaves no goroutine
// behind. Over the wider fan-outs the workers do help.
func TestHelpingDeterministicAcrossWorkers(t *testing.T) {
	for _, r := range []Retry{{}, {Attempts: 3}} {
		var want helpedOutcome
		for _, workers := range []int{1, 2, 8} {
			var helped atomic.Int64
			base := runtime.NumGoroutine()
			got := runHelped(t, workers, 12, r, &helped)
			goroutinesBack(t, base)
			if workers == 1 {
				if helped.Load() != 0 {
					t.Fatalf("attempts %d: a one-worker fan-out helped %d pieces", r.Attempts, helped.Load())
				}
				want = got
				continue
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("attempts %d, %d workers: results differ from 1 worker", r.Attempts, workers)
			}
			if !reflect.DeepEqual(got.reports, want.reports) {
				t.Errorf("attempts %d, %d workers: reports %v, 1 worker %v", r.Attempts, workers, got.reports, want.reports)
			}
			if got.tree != want.tree {
				t.Errorf("attempts %d, %d workers: trace tree %s, 1 worker %s", r.Attempts, workers, got.tree, want.tree)
			}
			t.Logf("attempts %d, %d workers: %d pieces helped", r.Attempts, workers, helped.Load())
		}
	}
}

// TestHelpingCancelledMidPlan: a ctx cancelled while the fan-out runs
// stops dispatch while helpers still serve the jobs already running. Which
// jobs had started is scheduling-dependent, so the check is per job: every
// job that ran returns the value an uncancelled fan-out returns, every
// other job reports ErrCancelled, and no goroutine outlives RunRetry.
func TestHelpingCancelledMidPlan(t *testing.T) {
	var helped atomic.Int64
	want := runHelped(t, 1, 12, Retry{}, &helped).results
	for _, workers := range []int{1, 2, 8} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		results := make([]uint64, 12)
		reports := New(workers, nil).RunRetry(ctx, "help", 12, Retry{}, func(jctx context.Context, i, _ int) error {
			if i == 4 {
				cancel()
			}
			results[i] = newPiecework(i, 2+8*(i%3), &helped).run(jctx)
			return nil
		})
		cancel()
		goroutinesBack(t, base)
		ran := 0
		for i, rep := range reports {
			switch {
			case rep.Err == nil:
				ran++
				if results[i] != want[i] {
					t.Errorf("%d workers: job %d returned %x, uncancelled %x", workers, i, results[i], want[i])
				}
			case !errors.Is(rep.Err, ErrCancelled):
				t.Errorf("%d workers: job %d failed with %v, want ErrCancelled", workers, i, rep.Err)
			}
		}
		if reports[4].Err != nil || workers == 1 && ran != 5 {
			t.Errorf("%d workers: %d jobs ran; job 4 cancels as it starts, and a sequential pool stops after it", workers, ran)
		}
	}
}

// TestCrewOfOneWorkerIsNil: a nil or one-worker pool gives its jobs no
// crew, so nothing is offered and no worker helps.
func TestCrewOfOneWorkerIsNil(t *testing.T) {
	for _, p := range []*Pool{nil, New(1, nil)} {
		_ = p.Run(context.Background(), "solo", 3, func(ctx context.Context, _ int) error {
			if c := CrewOf(ctx); c != nil || c.Offer(newPiecework(0, 1, new(atomic.Int64))) {
				t.Errorf("workers %d: a job got a crew that takes offers", p.Workers())
			}
			return nil
		})
	}
	// A wider pool whose fan-out has one job runs it on one worker.
	_ = New(4, nil).Run(context.Background(), "single", 1, func(ctx context.Context, _ int) error {
		if CrewOf(ctx) != nil {
			t.Error("a one-job fan-out got a crew")
		}
		return nil
	})
}
