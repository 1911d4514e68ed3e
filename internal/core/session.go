package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"powerbench/internal/meter"
	"powerbench/internal/stats"
)

// The paper's test procedure is file-based: WTViewer writes power CSVs on
// the logging PC, the test scripts record each program's start/end times,
// and the analysis begins by copying the CSV files to the server and
// merging them into one (§V-C2). Session and its Marshal/Parse functions
// reproduce that interface, so the analysis pipeline can run from files
// alone — including files produced by real hardware, should any be
// available.

// SessionEntry records one program's execution window.
type SessionEntry struct {
	Program string
	Start   float64 // server-clock seconds
	End     float64
}

// Session is the manifest of one measurement session.
type Session struct {
	Server  string
	Entries []SessionEntry
}

// MarshalManifest renders the session manifest as a small text format:
//
//	server <name>
//	run <start> <end> <program...>
func (s *Session) MarshalManifest() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "server %s\n", s.Server)
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "run %.3f %.3f %s\n", e.Start, e.End, e.Program)
	}
	return []byte(b.String())
}

// ParseManifest parses the MarshalManifest format.
func ParseManifest(data []byte) (*Session, error) {
	s := &Session{}
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "server":
			if len(fields) < 2 {
				return nil, fmt.Errorf("core: manifest line %d: missing server name", lineNo+1)
			}
			s.Server = strings.Join(fields[1:], " ")
		case "run":
			if len(fields) < 4 {
				return nil, fmt.Errorf("core: manifest line %d: want 'run start end program'", lineNo+1)
			}
			start, err1 := strconv.ParseFloat(fields[1], 64)
			end, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil || end < start {
				return nil, fmt.Errorf("core: manifest line %d: bad window %q %q", lineNo+1, fields[1], fields[2])
			}
			// A NaN passes the order check, and an infinite edge makes an
			// unbounded window; neither is a time the scripts could log.
			if !stats.IsFinite(start) || !stats.IsFinite(end) {
				return nil, fmt.Errorf("core: manifest line %d: non-finite window %q %q", lineNo+1, fields[1], fields[2])
			}
			s.Entries = append(s.Entries, SessionEntry{
				Program: strings.Join(fields[3:], " "),
				Start:   start,
				End:     end,
			})
		default:
			return nil, fmt.Errorf("core: manifest line %d: unknown directive %q", lineNo+1, fields[0])
		}
	}
	if s.Server == "" {
		return nil, fmt.Errorf("core: manifest missing server line")
	}
	return s, nil
}

// ProgramPower is one analyzed program of a session.
type ProgramPower struct {
	Program  string
	Watts    float64
	Samples  int
	Duration float64
}

// AnalyzeSession runs the paper's data-analysis procedure from raw files:
// parse and merge the CSV logs (they may arrive split and unordered, as
// WTViewer rotates files), optionally undo a known clock skew, extract
// each program's window from the manifest, trim 10% head/tail and average.
func AnalyzeSession(manifest []byte, skewSec float64, csvFiles ...[]byte) ([]ProgramPower, error) {
	session, err := ParseManifest(manifest)
	if err != nil {
		return nil, err
	}
	var logs [][]meter.Sample
	for i, f := range csvFiles {
		log, err := meter.UnmarshalCSV(f)
		if err != nil {
			return nil, fmt.Errorf("core: CSV file %d: %w", i, err)
		}
		logs = append(logs, log)
	}
	merged := meter.Merge(logs...)
	if skewSec != 0 {
		merged = meter.Synchronize(merged, skewSec)
	}
	var out []ProgramPower
	for _, e := range session.Entries {
		w := meter.Window(merged, e.Start, e.End)
		if len(w) == 0 {
			return nil, fmt.Errorf("core: no samples for %s in [%v, %v]", e.Program, e.Start, e.End)
		}
		out = append(out, ProgramPower{
			Program:  e.Program,
			Watts:    meter.Summarize(w, e.Start, e.End, TrimFrac).MeanWatts,
			Samples:  len(w),
			Duration: e.End - e.Start,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Program < out[j].Program })
	return out, nil
}
