package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeSegment renders records as one CRC-framed segment file.
func writeSegment(t testing.TB, dir string, seq int, recs ...*walRecord) string {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		b, err := frame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	path := filepath.Join(dir, segmentName(seq))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func frameBytes(t testing.TB, rec *walRecord) []byte {
	t.Helper()
	b, err := frame(rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, segmentBytes, -1, -1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []*walRecord{
		{Type: recAccepted, Campaign: "c1", Spec: testSpec(), Unix: 1700000000},
		{Type: recStarted, Campaign: "c1", Point: 0},
		{Type: recDone, Campaign: "c1", Point: 0, Body: []byte(`{"score":1}`)},
		{Type: recFailed, Campaign: "c1", Point: 1, Attempt: 1, Err: "boom"},
		{Type: recQuarantined, Campaign: "c1", Point: 1, Err: "boom"},
		{Type: recCampDone, Campaign: "c1"},
	}
	for _, rec := range want[:5] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendSync(want[5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.corrupt || res.truncatedBytes != 0 {
		t.Fatalf("clean WAL replayed corrupt=%v truncated=%d", res.corrupt, res.truncatedBytes)
	}
	if len(res.records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(res.records), len(want))
	}
	for i, got := range res.records {
		if got.Type != want[i].Type || got.Campaign != want[i].Campaign ||
			got.Point != want[i].Point || got.Err != want[i].Err {
			t.Errorf("record %d: got %+v want %+v", i, got, want[i])
		}
	}
	if string(res.records[2].Body) != `{"score":1}` {
		t.Errorf("done body did not round-trip: %q", res.records[2].Body)
	}
}

// A torn tail — the expected kill -9 artifact — must be truncated to the
// last valid record, trimmed on disk, and leave the WAL writable.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	acc := &walRecord{Type: recAccepted, Campaign: "c1", Spec: testSpec(), Unix: 1700000000}
	done := &walRecord{Type: recDone, Campaign: "c1", Point: 0, Body: []byte("x")}
	path := writeSegment(t, dir, 0, acc, done)
	// Append half of a third frame: the crash landed mid-write.
	torn := frameBytes(t, &walRecord{Type: recDone, Campaign: "c1", Point: 1})
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	res, err := replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.corrupt {
		t.Fatal("torn tail must not mark the WAL corrupt")
	}
	if res.truncatedBytes != int64(len(torn)/2) {
		t.Errorf("truncated %d bytes, want %d", res.truncatedBytes, len(torn)/2)
	}
	if len(res.records) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the tear", len(res.records))
	}
	// The repair is on disk: a second replay is clean.
	res2, err := replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.truncatedBytes != 0 || len(res2.records) != 2 {
		t.Errorf("second replay truncated=%d records=%d; repair did not persist",
			res2.truncatedBytes, len(res2.records))
	}
}

// Corruption before the tail segment is not explicable by a crash; replay
// must stop there and the manager must degrade to read-only.
func TestWALNonTailCorruptionDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	acc := &walRecord{Type: recAccepted, Campaign: "c1", Spec: testSpec(), Unix: 1700000000}
	seg0 := frameBytes(t, acc)
	// A full frame with a deliberately wrong CRC, mid-history.
	bad := make([]byte, 8+4)
	binary.LittleEndian.PutUint32(bad[0:4], 4)
	binary.LittleEndian.PutUint32(bad[4:8], 0xDEADBEEF)
	copy(bad[8:], "xxxx")
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), append(seg0, bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	writeSegment(t, dir, 1, &walRecord{Type: recCheckpoint})

	res, err := replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.corrupt {
		t.Fatal("non-tail corruption not flagged")
	}
	if len(res.records) != 1 {
		t.Errorf("replayed %d records, want the 1 before the corruption", len(res.records))
	}

	// The manager built on this WAL rejects new campaigns and reports the
	// degradation in its health block.
	m, rec, err := Open(Config{Dir: dir, FsyncEvery: -1, Exec: newStubExec().fn})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !rec.Corrupt {
		t.Error("Recovery.Corrupt not set")
	}
	spec := testSpec()
	spec.Name = "rejected"
	if _, _, err := m.Submit(spec); err != ErrReadOnly {
		t.Errorf("Submit on degraded WAL = %v, want ErrReadOnly", err)
	}
	if h := m.Health(); !h.ReadOnly {
		t.Error("Health.ReadOnly false on a degraded WAL")
	}
}

func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 256, -1, -1, 0, nil) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(&walRecord{Type: recStarted, Campaign: "c1", Point: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("%d segments after 50 appends at 256-byte bound, want rotation", len(segs))
	}
	res, err := replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.records) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(res.records))
	}
	// Compaction rewrites the live state into one fresh segment and removes
	// the history.
	live := []*walRecord{{Type: recAccepted, Campaign: "c1", Spec: testSpec(), Unix: 1}}
	if _, _, err := compact(dir, live, res.lastSeq, nil); err != nil {
		t.Fatal(err)
	}
	segs, _ = listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments after compaction, want 1", len(segs))
	}
	res, err = replayDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.records) != 1 || res.records[0].Type != recAccepted {
		t.Fatalf("compacted replay %d records, want the 1 live record", len(res.records))
	}
}

// TestCrashMatrix kills the (simulated) daemon after every transition type
// the WAL journals and proves recovery lands in the right state: completed
// points never re-execute, in-flight ones resume, quarantined ones stay
// parked, terminal campaigns stay terminal.
func TestCrashMatrix(t *testing.T) {
	spec := &SweepSpec{
		Servers: []string{"Xeon-E5462"},
		Seeds:   []float64{1, 2},
		Retry:   RetrySpec{Attempts: 3},
		// Threshold 2 so one journaled failure + one live failure poisons.
		QuarantineAfter: 2,
	}
	id := spec.ID()
	pts := spec.Expand()
	body0 := []byte("body|" + pts[0].Key) // what the stub executor produces
	sha0 := sha256.Sum256(body0)
	acc := &walRecord{Type: recAccepted, Campaign: id, Spec: spec, Unix: 1700000000}

	cases := []struct {
		name     string
		recs     []*walRecord
		tornTail *walRecord // half-written frame appended after recs
		failIdx  int        // point the executor always fails (-1: none)

		wantState   string
		wantExec    map[int]int // exact execution counts per index
		wantDone    int
		wantQuar    int
		wantResumed int
	}{
		{
			name:        "after accepted",
			recs:        []*walRecord{acc},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 1, 1: 1},
			wantDone:    2,
			wantResumed: 1,
		},
		{
			name:        "after point started",
			recs:        []*walRecord{acc, {Type: recStarted, Campaign: id, Point: 0}},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 1, 1: 1}, // started is not terminal: pending again
			wantDone:    2,
			wantResumed: 1,
		},
		{
			name: "after point done",
			recs: []*walRecord{acc,
				{Type: recStarted, Campaign: id, Point: 0},
				{Type: recDone, Campaign: id, Point: 0, Body: body0}},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 0, 1: 1}, // the done point never runs again
			wantDone:    2,
			wantResumed: 1,
		},
		{
			name: "duplicate done records",
			recs: []*walRecord{acc,
				{Type: recDone, Campaign: id, Point: 0, Body: body0},
				{Type: recDone, Campaign: id, Point: 0, Body: body0}},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 0, 1: 1}, // counted once, executed never
			wantDone:    2,
			wantResumed: 1,
		},
		{
			name: "after point failed",
			recs: []*walRecord{acc,
				{Type: recStarted, Campaign: id, Point: 1},
				{Type: recFailed, Campaign: id, Point: 1, Attempt: 1, Err: "boom"}},
			failIdx:   1,
			wantState: StateDone,
			// One journaled failure + one live failure reaches the threshold:
			// exactly one more attempt, then quarantine.
			wantExec:    map[int]int{0: 1, 1: 1},
			wantDone:    1,
			wantQuar:    1,
			wantResumed: 1,
		},
		{
			name: "after point quarantined",
			recs: []*walRecord{acc,
				{Type: recQuarantined, Campaign: id, Point: 1, Err: "poison"}},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 1, 1: 0}, // parked points stay parked
			wantDone:    1,
			wantQuar:    1,
			wantResumed: 1,
		},
		{
			name: "after campaign done",
			recs: []*walRecord{acc,
				{Type: recDone, Campaign: id, Point: 0, Body: body0},
				{Type: recDone, Campaign: id, Point: 1, Body: []byte("body|" + pts[1].Key)},
				{Type: recCampDone, Campaign: id}},
			failIdx:   -1,
			wantState: StateDone,
			wantExec:  map[int]int{0: 0, 1: 0},
			wantDone:  2,
		},
		{
			name: "campaign-done record lost",
			recs: []*walRecord{acc,
				{Type: recDone, Campaign: id, Point: 0, Body: body0},
				{Type: recDone, Campaign: id, Point: 1, Body: []byte("body|" + pts[1].Key)}},
			failIdx:   -1,
			wantState: StateDone, // closed out at rebuild, not re-run
			wantExec:  map[int]int{0: 0, 1: 0},
			wantDone:  2,
		},
		{
			name:      "after campaign cancelled",
			recs:      []*walRecord{acc, {Type: recCancelled, Campaign: id, Reason: "client request"}},
			failIdx:   -1,
			wantState: StateCancelled,
			wantExec:  map[int]int{0: 0, 1: 0},
		},
		{
			name:        "torn tail after done",
			recs:        []*walRecord{acc, {Type: recDone, Campaign: id, Point: 0, Body: body0}},
			tornTail:    &walRecord{Type: recDone, Campaign: id, Point: 1},
			failIdx:     -1,
			wantState:   StateDone,
			wantExec:    map[int]int{0: 0, 1: 1}, // the torn record is as if never written
			wantDone:    2,
			wantResumed: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeSegment(t, dir, 0, tc.recs...)
			if tc.tornTail != nil {
				torn := frameBytes(t, tc.tornTail)
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(torn[:len(torn)-3]); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			exec := newStubExec()
			if tc.failIdx >= 0 {
				exec.fail[tc.failIdx] = -1
			}
			m, rec, err := Open(Config{Dir: dir, FsyncEvery: -1, Workers: 2, Exec: exec.fn})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if rec.Resumed != tc.wantResumed {
				t.Errorf("Recovery.Resumed = %d, want %d", rec.Resumed, tc.wantResumed)
			}
			if tc.tornTail != nil && rec.TruncatedBytes == 0 {
				t.Error("torn tail not reported in Recovery.TruncatedBytes")
			}
			m.Start()
			final := waitState(t, m, id, tc.wantState)
			if final.Counts.Done != tc.wantDone || final.Counts.Quarantined != tc.wantQuar {
				t.Errorf("counts %+v, want done=%d quarantined=%d",
					final.Counts, tc.wantDone, tc.wantQuar)
			}
			for idx, want := range tc.wantExec {
				if got := exec.calls(idx); got != want {
					t.Errorf("point %d executed %d times, want %d", idx, got, want)
				}
			}
			// Replayed done points keep the exact result identity of the
			// crashed run.
			for _, r := range tc.recs {
				if r.Type == recDone && r.Point == 0 {
					if got := final.Points[0].ResultSHA; got != hex.EncodeToString(sha0[:]) {
						t.Errorf("recovered point 0 sha %s, want sha256 of the journaled body", got)
					}
				}
			}
		})
	}
}

// FuzzWALReplay feeds arbitrary segment bytes — including truncations and
// bit flips of valid streams — through replay and recovery. Replay must
// never panic, repair must be idempotent, and a point journaled as done
// must never execute again no matter how the surrounding bytes were
// mangled.
func FuzzWALReplay(f *testing.F) {
	spec := &SweepSpec{Servers: []string{"Xeon-E5462"}, Seeds: []float64{1, 2}}
	id := spec.ID()
	var valid []byte
	for _, rec := range []*walRecord{
		{Type: recAccepted, Campaign: id, Spec: spec, Unix: 1700000000},
		{Type: recStarted, Campaign: id, Point: 0},
		{Type: recDone, Campaign: id, Point: 0, Body: []byte(`{"score":1}`)},
		{Type: recDone, Campaign: id, Point: 0, Body: []byte(`{"score":1}`)},
		{Type: recFailed, Campaign: id, Point: 1, Attempt: 1, Err: "boom"},
		{Type: recCampDone, Campaign: id},
	} {
		valid = append(valid, frameBytes(f, rec)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip mid-stream
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // absurd length header

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := replayDir(dir, nil)
		if err != nil {
			t.Fatalf("replayDir I/O error: %v", err)
		}
		if !res.corrupt {
			// Truncation repair is idempotent: replaying the repaired file
			// finds the same records and nothing more to trim.
			res2, err := replayDir(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res2.truncatedBytes != 0 || len(res2.records) != len(res.records) {
				t.Fatalf("repair not idempotent: second replay truncated %d, %d→%d records",
					res2.truncatedBytes, len(res.records), len(res2.records))
			}
		}

		// Recovery over whatever survived: counts must stay consistent and
		// a replayed-done point must never be executed again.
		exec := newStubExec()
		m, _, err := Open(Config{Dir: dir, FsyncEvery: -1, MaxPoints: 64, Exec: exec.fn})
		if err != nil {
			t.Fatalf("Open after replay: %v", err)
		}
		defer m.Close()
		doneBefore := map[int]bool{}
		if st, err := m.Status(id, true); err == nil {
			for _, pt := range st.Points {
				if pt.State == StatePointDone {
					doneBefore[pt.Index] = true
				}
			}
		}
		m.Start()
		deadline := 5 * 1000
		for i := 0; ; i++ {
			allTerminal := true
			for _, s := range m.List() {
				c := s.Counts
				if c.Pending+c.Running+c.Done+c.Quarantined+c.Cancelled != c.Total {
					t.Fatalf("inconsistent counts %+v", c)
				}
				if s.State != StateDone && s.State != StateCancelled {
					allTerminal = false
				}
			}
			if allTerminal {
				break
			}
			if i >= deadline {
				t.Fatal("campaigns did not settle")
			}
			time.Sleep(2 * time.Millisecond)
		}
		for idx := range doneBefore {
			if exec.calls(idx) != 0 {
				t.Fatalf("point %d was journaled done but executed %d times", idx, exec.calls(idx))
			}
		}
	})
}
