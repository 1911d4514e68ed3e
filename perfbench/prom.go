package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// series maps a Prometheus series (metric name plus its label set, exactly
// as exposed) to its value.
type series map[string]float64

// parseProm reads the Prometheus text exposition served on /metrics.
// Comment lines are skipped, and an OpenMetrics exemplar suffix
// (" # {span=...} v") on a bucket line is dropped.
func parseProm(text string) (series, error) {
	out := series{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		var key, val string
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			key, val = line[:i+1], line[i+1:]
		} else {
			i := strings.IndexByte(line, ' ')
			if i < 0 {
				return nil, fmt.Errorf("metrics line %d: no value: %q", n, line)
			}
			key, val = line[:i], line[i:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// delta returns after minus before for every series in after; a series
// absent before counts from zero.
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// family sums every series of the named metric, whatever its labels.
func (s series) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || (strings.HasPrefix(k, name) && len(k) > len(name) && k[len(name)] == '{') {
			sum += v
		}
	}
	return sum
}
