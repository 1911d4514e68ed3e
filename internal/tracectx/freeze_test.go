package tracectx

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// After Freeze nothing a span holder does changes the trace: open spans
// close at the freeze instant, and a later child, attr, virtual clock, End
// or origin is dropped, so every Render and Export matches the first.
func TestFreezeFixesTheDocument(t *testing.T) {
	tr := New(DeriveID("freeze"), "/v1/evaluate", "serve")
	root := tr.Root()
	open := root.Child("compute").Str("server", "Xeon-E5462")
	root.Child("cache").Str("result", "miss").End()
	tr.Freeze()
	m := Meta{Key: "evaluate|k", Status: 200, Reason: "cache-miss", Flight: "f"}
	before := tr.Render(m)
	spans, size := tr.Len(), tr.Size()
	exported := tr.Export()

	time.Sleep(2 * time.Millisecond)
	if c := open.Child("late"); c != nil {
		t.Error("Child on a frozen trace returned a span")
	}
	if c := root.ChildIndex("sim", " job ", 1); c != nil {
		t.Error("ChildIndex on a frozen trace returned a span")
	}
	open.Str("server", "changed").Int("late", 1).Float("watts", 1).Bool("b", true)
	open.SetVirtual(1, 2)
	open.End()
	root.End()
	tr.SetOrigin("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr.Freeze()

	after := tr.Render(m)
	if string(after.Body) != string(before.Body) {
		t.Errorf("render changed after freeze:\n got %s\nwant %s", after.Body, before.Body)
	}
	if tr.Len() != spans || tr.Size() != size {
		t.Errorf("frozen trace grew: %d spans %d bytes, was %d and %d", tr.Len(), tr.Size(), spans, size)
	}
	if got := tr.Export(); got.TreeHash != exported.TreeHash || got.DurationUS != exported.DurationUS ||
		got.Spans[1].DurUS != exported.Spans[1].DurUS || got.Origin != "" {
		t.Errorf("export changed after freeze: %+v, was %+v", got, exported)
	}
	if d := tr.DurationUS(); d != before.DurationUS {
		t.Errorf("DurationUS = %d, Render's duration_us = %d", d, before.DurationUS)
	}
}

// A frozen trace with non-finite floats renders them as strings, as the
// reflection oracle does.
func TestFrozenNonFiniteRenders(t *testing.T) {
	tr := New(DeriveID("freeze typed"), "request", "serve")
	tr.Root().Float("watts", math.Inf(1)).Int("n", 3).Str("s", "x")
	tr.Root().Child("state").Float("watts", math.NaN()).Float("min", math.Inf(-1)).End()
	endAll(tr)
	tr.Freeze()
	if body := string(tr.Render(Meta{}).Body); !strings.Contains(body, `"watts": "+Inf"`) || !strings.Contains(body, `"watts": "NaN"`) {
		t.Errorf("non-finite floats not rendered as strings:\n%s", body)
	}
	checkRender(t, tr, Meta{})
}

// Writers racing a freeze either land before it or are dropped: once
// Freeze returns, renders agree byte for byte while the writers go on.
func TestFreezeDuringWrites(t *testing.T) {
	tr := New(DeriveID("freeze race"), "request", "serve")
	root := tr.Root()
	busy := make([]*Span, 4)
	for i := range busy {
		busy[i] = root.ChildIndex("busy", " ", i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, sp := range busy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sp.Int("n", n).Float("f", float64(n)).Str("s", "v")
				sp.SetVirtual(float64(n), float64(n+1))
				sp.ChildIndex("sub", " ", n%8).Int("i", i).End()
			}
		}()
	}
	time.Sleep(time.Millisecond)
	tr.Freeze()
	first := tr.Render(Meta{})
	for range 5 {
		if st := tr.Render(Meta{}); string(st.Body) != string(first.Body) {
			t.Fatal("render of a frozen trace changed while writers ran")
		}
	}
	close(stop)
	wg.Wait()
}

// Size counts the chunks a trace adds as it grows, and nothing a
// fixed-size trace does not hold.
func TestTraceSize(t *testing.T) {
	var nilTrace *Trace
	nilTrace.Freeze()
	if nilTrace.Size() != 0 || nilTrace.DurationUS() != 0 {
		t.Fatal("nil trace has a size or a duration")
	}
	tr := New(DeriveID("size"), "request", "serve")
	small := tr.Size()
	tr.Root().Child("cache")
	if tr.Size() != small {
		t.Errorf("the inline span chunk grew the size: %d, was %d", tr.Size(), small)
	}
	for i := range 40 {
		tr.Root().ChildIndex("job", " ", i).Str("a", "x").Int("b", i)
	}
	if tr.Size() <= small {
		t.Errorf("41 spans: size %d, no more than the inline %d", tr.Size(), small)
	}
	// Keys and string values are copied into the arena, so they count: the
	// arena grows past both, less the arena it replaces.
	before := tr.Size()
	tr.Root().Str(strings.Repeat("k", 1024), strings.Repeat("v", 4096))
	if grew := tr.Size() - before; grew < 4096 {
		t.Errorf("a 1 KiB key and a 4 KiB value grew the size by %d bytes, want >= 4096", grew)
	}
}
