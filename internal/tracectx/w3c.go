package tracectx

import (
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceparentHeader is the W3C Trace Context header name (lowercase per the
// spec; net/http canonicalizes on the wire).
const TraceparentHeader = "traceparent"

// Parent is a parsed W3C traceparent header.
type Parent struct {
	Trace   ID
	Span    SpanID
	Sampled bool
}

// Parse decodes a version-00 W3C traceparent header value:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// Per the spec, an all-zero trace or parent id is invalid, and versions
// other than 00 are accepted as long as the 00-shaped prefix parses (a
// future version may append fields).
func Parse(value string) (Parent, error) {
	var p Parent
	parts := strings.Split(strings.TrimSpace(value), "-")
	if len(parts) < 4 {
		return p, fmt.Errorf("tracectx: traceparent %q: want 4 dash-separated fields", value)
	}
	version, tid, sid, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || !isHex(version) {
		return p, fmt.Errorf("tracectx: traceparent %q: bad version", value)
	}
	if version == "ff" {
		return p, fmt.Errorf("tracectx: traceparent %q: version ff is forbidden", value)
	}
	if version == "00" && len(parts) != 4 {
		return p, fmt.Errorf("tracectx: traceparent %q: version 00 wants exactly 4 fields", value)
	}
	if len(tid) != 32 || !isHex(tid) {
		return p, fmt.Errorf("tracectx: traceparent %q: bad trace id", value)
	}
	if len(sid) != 16 || !isHex(sid) {
		return p, fmt.Errorf("tracectx: traceparent %q: bad parent id", value)
	}
	if len(flags) != 2 || !isHex(flags) {
		return p, fmt.Errorf("tracectx: traceparent %q: bad flags", value)
	}
	hex.Decode(p.Trace[:], []byte(tid))
	hex.Decode(p.Span[:], []byte(sid))
	if p.Trace.IsZero() {
		return Parent{}, fmt.Errorf("tracectx: traceparent %q: zero trace id", value)
	}
	if p.Span.IsZero() {
		return Parent{}, fmt.Errorf("tracectx: traceparent %q: zero parent id", value)
	}
	var fb []byte
	fb, _ = hex.DecodeString(flags)
	p.Sampled = fb[0]&0x01 != 0
	return p, nil
}

// Format renders a version-00 traceparent header value for the given trace
// and span id.
func Format(trace ID, span SpanID, sampled bool) string {
	var b [TraceparentLen]byte
	return string(AppendTraceparent(b[:0], trace, span, sampled))
}

// TraceparentLen is the length of a version-00 traceparent value.
const TraceparentLen = len("00-") + 2*len(ID{}) + 1 + 2*len(SpanID{}) + len("-00")

// AppendTraceparent appends the value Format renders to dst; the trace id
// is its [3:35] substring.
func AppendTraceparent(dst []byte, trace ID, span SpanID, sampled bool) []byte {
	var b [TraceparentLen]byte
	n := copy(b[:], "00-")
	n += hex.Encode(b[n:], trace[:])
	b[n] = '-'
	n++
	n += hex.Encode(b[n:], span[:])
	n += copy(b[n:], "-00")
	if sampled {
		b[n-1] = '1'
	}
	return append(dst, b[:]...)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}
