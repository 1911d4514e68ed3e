package tracectx

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// This file is the span appender: the one writer of span JSON, shared by
// Render (the daemon's stored documents and their hashes) and by
// Doc.CanonicalJSON/Rehash (exports and stitched fleet documents). It
// writes exactly the bytes encoding/json writes for a SpanDoc, handling the
// attr types the pipeline records (string, int, int64, float64, bool) by
// hand and handing anything else to json.Marshal.

// appendSpanHead opens a span object and appends its identity fields: id,
// parent (omitted when empty), path, name and cat (omitted when empty). The
// caller may append the wall-time members before closing the object with
// appendSpanAttrs.
func appendSpanHead[T string | []byte](b []byte, id, parent T, path, name, cat string) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, id)
	if len(parent) > 0 {
		b = append(b, `,"parent":`...)
		b = appendString(b, parent)
	}
	b = append(b, `,"path":`...)
	b = appendString(b, path)
	b = append(b, `,"name":`...)
	b = appendString(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, cat)
	}
	return b
}

// appendSpanTimes appends a span's start_us and dur_us members.
func appendSpanTimes(b []byte, startUS, durUS int64) []byte {
	b = append(b, `,"start_us":`...)
	b = strconv.AppendInt(b, startUS, 10)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendInt(b, durUS, 10)
	return b
}

// appendSpanAttrs appends the attrs member (omitted when empty), its keys
// in bytewise order as encoding/json sorts them, and closes the span
// object. A value json.Marshal rejects (NaN, ±Inf, a channel) is an error.
func appendSpanAttrs(b []byte, attrs map[string]any) ([]byte, error) {
	if len(attrs) == 0 {
		return append(b, '}'), nil
	}
	var kbuf [16]string
	keys := kbuf[:0]
	for k := range attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, `,"attrs":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		var err error
		if b, err = appendValue(b, attrs[k]); err != nil {
			return nil, err
		}
	}
	return append(b, "}}"...), nil
}

// appendValue appends one attr value as encoding/json renders it.
func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(b, v), nil
	case int:
		return strconv.AppendInt(b, int64(v), 10), nil
	case int64:
		return strconv.AppendInt(b, v, 10), nil
	case bool:
		return strconv.AppendBool(b, v), nil
	case float64:
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			return appendFloat(b, v), nil
		}
	}
	j, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, j...), nil
}

// appendFloat appends a finite float64 the way encoding/json does: the
// shortest representation, in exponent form outside [1e-6, 1e21), with a
// one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII other than the
// quote, the backslash and encoding/json's HTML-escaped <, > and & is
// copied as is; any other byte hands the whole string to json.Marshal.
func appendString[T string | []byte](b []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			j, _ := json.Marshal(string(s))
			return append(b, j...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
