package jobs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"powerbench/internal/obs"
)

// The WAL is a sequence of segment files wal-<seq>.log, each holding
// CRC-framed records:
//
//	[4B little-endian payload length][4B CRC-32C of payload][payload JSON]
//
// Appends go through a bufio writer under the WAL mutex; durability is
// group-committed — a background flusher fsyncs the tail segment every
// FsyncEvery (default 5ms), so a burst of point transitions costs one
// fsync, not one each. AppendSync forces the commit inline for records
// that must be durable before the caller proceeds (campaign acceptance
// answers 202 only after its record is on disk).
//
// Replay failure taxonomy (DESIGN.md §13):
//
//   - Torn write (short frame / CRC mismatch / undecodable payload) in the
//     TAIL segment: the expected crash artifact. The segment is truncated
//     to the last valid record and appends continue after it.
//   - Corruption in a NON-TAIL segment: not explicable by a crash —
//     something rewrote history. Replay keeps the records up to the bad
//     frame, stops, and the WAL degrades to read-only (no new campaigns,
//     no appends) with the flag surfaced in /healthz.
//   - Write/fsync error at runtime (disk full): the WAL degrades to
//     read-only the same way; execution state stays correct in memory and
//     the operator is pointed at the flag instead of a crash loop.
type wal struct {
	dir        string
	segBytes   int64
	fsyncEvery time.Duration
	obs        *obs.Obs

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	seq      int   // current (tail) segment sequence number
	size     int64 // bytes written to the tail segment
	segments int   // live segment-file count
	dirty    bool  // writes since the last fsync
	readOnly bool
	closed   bool

	stop chan struct{}
	done chan struct{}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxRecordBytes bounds a single WAL payload; a length header above it is
// treated as corruption rather than an allocation request.
const maxRecordBytes = 8 << 20

// segmentBytes bounds one WAL segment; the manager's WAL rotates at it.
const segmentBytes = 4 << 20

const defaultFsyncEvery = 5 * time.Millisecond

// walRecord is the one journal record shape; Type selects which fields
// are meaningful. Bodies are raw response bytes (JSON marshals them as
// base64), journaled on point_done so recovery can re-warm the result
// cache with the exact bytes the crashed run served.
type walRecord struct {
	Type     string     `json:"t"`
	Campaign string     `json:"c,omitempty"`
	Spec     *SweepSpec `json:"spec,omitempty"`
	Unix     int64      `json:"unix,omitempty"`
	Points   int        `json:"points,omitempty"`
	Point    int        `json:"p,omitempty"`
	Attempt  int        `json:"a,omitempty"`
	Cached   bool       `json:"cached,omitempty"`
	Body     []byte     `json:"body,omitempty"`
	Err      string     `json:"err,omitempty"`
	Reason   string     `json:"reason,omitempty"`
}

// Record types, one per state transition of the campaign state machine.
const (
	recAccepted    = "campaign_accepted"
	recExpanded    = "campaign_expanded"
	recStarted     = "point_started"
	recDone        = "point_done"
	recFailed      = "point_failed"
	recQuarantined = "point_quarantined"
	recCampDone    = "campaign_done"
	recCancelled   = "campaign_cancelled"
	recPurged      = "campaign_purged"
	recCheckpoint  = "checkpoint"
)

func segmentName(seq int) string { return fmt.Sprintf("wal-%08d.log", seq) }

// listSegments returns the dir's segment files sorted by sequence.
func listSegments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}

// openWAL opens (creating if needed) the WAL in dir, appending to a fresh
// segment after the highest existing one, and rotates segments at segBytes
// (segmentBytes, or less to test rotation). Replay is the caller's job
// (replayDir) and must happen first.
func openWAL(dir string, segBytes int64, fsyncEvery time.Duration, lastSeq int, segments int, o *obs.Obs) (*wal, error) {
	if fsyncEvery == 0 {
		fsyncEvery = defaultFsyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &wal{
		dir:        dir,
		segBytes:   segBytes,
		fsyncEvery: fsyncEvery,
		obs:        o,
		seq:        lastSeq + 1,
		segments:   segments,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	if fsyncEvery > 0 {
		go w.flushLoop()
	} else {
		close(w.done)
	}
	w.publishGauges()
	return w, nil
}

// openSegmentLocked starts segment w.seq. Callers hold mu (or own the WAL
// exclusively during construction).
func (w *wal) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.size = 0
	w.segments++
	return nil
}

func (w *wal) publishGauges() {
	w.obs.Gauge("jobs_wal_segments").Set(float64(w.segments))
	ro := 0.0
	if w.readOnly {
		ro = 1
	}
	w.obs.Gauge("jobs_read_only").Set(ro)
}

// flushLoop is the group-commit goroutine: it fsyncs dirty buffers on a
// fixed cadence so appenders never pay a per-record fsync.
func (w *wal) flushLoop() {
	defer close(w.done)
	tick := time.NewTicker(w.fsyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			w.mu.Lock()
			_ = w.commitLocked()
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// frame renders one record as a CRC-framed byte slice.
func frame(rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[8:], payload)
	return buf, nil
}

// Append journals one record; durability arrives with the next group
// commit. In read-only mode the record is dropped (counted) — execution
// state machines stay correct in memory, they just lose crash durability.
func (w *wal) Append(rec *walRecord) error { return w.append(rec, false) }

// AppendSync journals one record and fsyncs before returning.
func (w *wal) AppendSync(rec *walRecord) error { return w.append(rec, true) }

func (w *wal) append(rec *walRecord, sync bool) error {
	if w == nil {
		return nil
	}
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.readOnly || w.closed {
		w.obs.Counter("jobs_wal_dropped_records_total").Inc()
		return errWALReadOnly
	}
	// Rotate before the write so a record never straddles segments.
	if w.size > 0 && w.size+int64(len(buf)) > w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return w.degradeLocked(err)
		}
	}
	if _, err := w.w.Write(buf); err != nil {
		return w.degradeLocked(err)
	}
	w.size += int64(len(buf))
	w.dirty = true
	w.obs.Counter("jobs_wal_records_total").Inc()
	if sync || w.fsyncEvery < 0 {
		if err := w.commitLocked(); err != nil {
			return err
		}
	}
	return nil
}

var errWALReadOnly = fmt.Errorf("jobs: WAL is read-only (corrupt segment or disk error); new campaigns rejected")

// commitLocked flushes the bufio layer and fsyncs the tail segment,
// recording the fsync latency histogram the issue's observability story
// centers on.
func (w *wal) commitLocked() error {
	if !w.dirty || w.readOnly || w.closed {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		return w.degradeLocked(err)
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.degradeLocked(err)
	}
	w.obs.Histogram("jobs_wal_fsync_seconds", nil).Observe(time.Since(start).Seconds())
	w.dirty = false
	return nil
}

// rotateLocked seals the tail segment and starts the next one.
func (w *wal) rotateLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.dirty = false
	w.seq++
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	w.obs.Counter("jobs_wal_rotations_total").Inc()
	w.publishGauges()
	return nil
}

// degradeLocked flips the WAL read-only after an unrecoverable write
// error (disk full being the canonical one) instead of crash-looping the
// daemon; /healthz surfaces the flag.
func (w *wal) degradeLocked(err error) error {
	w.readOnly = true
	w.obs.Counter("jobs_wal_append_errors_total").Inc()
	w.obs.Infof("jobs WAL degraded to read-only: %v", err)
	w.publishGauges()
	return fmt.Errorf("%w: %v", errWALReadOnly, err)
}

// ReadOnly reports whether the WAL has degraded.
func (w *wal) ReadOnly() bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readOnly
}

// setReadOnly forces read-only mode (used when replay found non-tail
// corruption before the WAL was even opened for appends).
func (w *wal) setReadOnly() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.readOnly = true
	w.publishGauges()
}

// Segments reports the live segment-file count.
func (w *wal) Segments() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments
}

// Close commits outstanding records and stops the flusher.
func (w *wal) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.commitLocked()
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- replay ---

// replayResult is what a directory replay yields: the record stream in
// journal order plus the failure taxonomy outcome.
type replayResult struct {
	records []*walRecord
	// lastSeq is the highest segment sequence seen (-1 when none).
	lastSeq int
	// segments is the number of segment files present.
	segments int
	// truncatedBytes counts tail bytes dropped as torn writes.
	truncatedBytes int64
	// corrupt reports non-tail corruption: the WAL must degrade to
	// read-only because history before the tail cannot be trusted as
	// complete.
	corrupt bool
}

// replayDir reads every segment in order. Torn tail records are truncated
// away (and the file trimmed on disk so the next boot is clean); a bad
// frame in a non-tail segment stops the replay at that point and marks
// the result corrupt.
func replayDir(dir string, o *obs.Obs) (*replayResult, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	res := &replayResult{lastSeq: -1, segments: len(segs)}
	for i, path := range segs {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.log", &seq); err == nil && seq > res.lastSeq {
			res.lastSeq = seq
		}
		tail := i == len(segs)-1
		recs, validLen, total, perr := replaySegment(path)
		res.records = append(res.records, recs...)
		if perr == nil {
			continue
		}
		if !tail {
			o.Infof("jobs WAL: segment %s corrupt mid-stream (%v); degrading to read-only", filepath.Base(path), perr)
			res.corrupt = true
			return res, nil
		}
		// Torn write at the tail: the expected kill -9 artifact. Trim the
		// file to the last valid frame so the damage never re-surfaces.
		res.truncatedBytes += total - validLen
		o.Counter("jobs_wal_truncations_total").Inc()
		o.Infof("jobs WAL: truncated %d torn byte(s) from %s (%v)", total-validLen, filepath.Base(path), perr)
		if err := os.Truncate(path, validLen); err != nil {
			res.corrupt = true
		}
	}
	return res, nil
}

// replaySegment decodes one segment file. It returns the records decoded
// before any error, the byte offset of the last fully valid frame, the
// file's total size, and the framing error (nil for a clean segment).
func replaySegment(path string) (recs []*walRecord, validLen, total int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	total = st.Size()
	r := bufio.NewReaderSize(f, 64<<10)
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if err == io.EOF {
				return recs, validLen, total, nil
			}
			return recs, validLen, total, fmt.Errorf("torn frame header: %v", err)
		}
		n := binary.LittleEndian.Uint32(header[0:4])
		crc := binary.LittleEndian.Uint32(header[4:8])
		if n > maxRecordBytes {
			return recs, validLen, total, fmt.Errorf("frame length %d exceeds record bound", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, validLen, total, fmt.Errorf("torn payload: %v", err)
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return recs, validLen, total, fmt.Errorf("CRC mismatch")
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, validLen, total, fmt.Errorf("undecodable payload: %v", err)
		}
		recs = append(recs, &rec)
		validLen += int64(8 + int(n))
	}
}

// compact rewrites the live state as a fresh segment set: one accepted
// record per campaign plus its terminal point outcomes, then deletes the
// old segments. Run at boot after a clean replay, it bounds WAL growth to
// the live state instead of the full transition history.
func compact(dir string, recs []*walRecord, lastSeq int, o *obs.Obs) (newSeq int, segments int, err error) {
	seq := lastSeq + 1
	path := filepath.Join(dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return lastSeq, 0, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	for _, rec := range recs {
		buf, ferr := frame(rec)
		if ferr != nil {
			f.Close()
			return lastSeq, 0, ferr
		}
		if _, werr := w.Write(buf); werr != nil {
			f.Close()
			return lastSeq, 0, werr
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return lastSeq, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return lastSeq, 0, err
	}
	if err := f.Close(); err != nil {
		return lastSeq, 0, err
	}
	// Old segments only go away after the compacted one is durable.
	segs, err := listSegments(dir)
	if err != nil {
		return lastSeq, 0, err
	}
	for _, s := range segs {
		if s == path {
			continue
		}
		if rerr := os.Remove(s); rerr != nil && err == nil {
			err = rerr
		}
	}
	o.Counter("jobs_wal_compactions_total").Inc()
	return seq, 1, err
}
