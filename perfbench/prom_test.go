package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# TYPE serve_cache_hits_total counter
serve_cache_hits_total 10
# TYPE serve_traces_stored_total counter
serve_traces_stored_total{reason="cache-miss"} 4
serve_traces_stored_total{reason="sampled"} 1
# TYPE jobs_wal_fsync_seconds histogram
jobs_wal_fsync_seconds_bucket{le="0.001"} 3
jobs_wal_fsync_seconds_bucket{le="+Inf"} 5 # {span="trace:ab"} 0.002
jobs_wal_fsync_seconds_sum 0.004
jobs_wal_fsync_seconds_count 5
`

const scrapeAfter = `# TYPE serve_cache_hits_total counter
serve_cache_hits_total 25
# TYPE serve_traces_stored_total counter
serve_traces_stored_total{reason="cache-miss"} 10
serve_traces_stored_total{reason="sampled"} 1
serve_traces_stored_total{reason="error"} 2
# TYPE http_requests_total counter
http_requests_total{class="2xx",code="200",route="/v1/evaluate label"} 7
# TYPE jobs_wal_fsync_seconds histogram
jobs_wal_fsync_seconds_bucket{le="0.001"} 9
jobs_wal_fsync_seconds_bucket{le="+Inf"} 12 # {span="trace:cd"} 0.003
jobs_wal_fsync_seconds_sum 0.011
jobs_wal_fsync_seconds_count 12
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	checks := map[string]float64{
		"serve_cache_hits_total":                      15,
		`jobs_wal_fsync_seconds_bucket{le="+Inf"}`:    7,
		"jobs_wal_fsync_seconds_count":                7,
		`serve_traces_stored_total{reason="error"}`:   2, // new series counts from zero
		`serve_traces_stored_total{reason="sampled"}`: 0,
	}
	for k, want := range checks {
		if got := d[k]; got != want {
			t.Errorf("delta[%s] = %v, want %v", k, got, want)
		}
	}
	if got := d["jobs_wal_fsync_seconds_sum"]; got < 0.00699 || got > 0.00701 {
		t.Errorf("delta of histogram sum = %v, want 0.007", got)
	}
	if got := d.family("serve_traces_stored_total"); got != 8 {
		t.Errorf("family sum over labels = %v, want 8", got)
	}
	// A family name that prefixes another must not swallow it.
	if got := d.family("serve_cache_hits"); got != 0 {
		t.Errorf("family(serve_cache_hits) = %v, want 0", got)
	}
	if got := after[`http_requests_total{class="2xx",code="200",route="/v1/evaluate label"}`]; got != 7 {
		t.Errorf("label value with a space: got %v", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue\n", "x{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(text); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("parseProm(%q) error = %v, want a line-1 error", text, err)
		}
	}
}
