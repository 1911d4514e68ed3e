package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// Every invalid axis must answer with a *FieldError naming the offending
// field — the HTTP layer maps these straight into 400 bodies, so the field
// strings are API surface.
func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name  string
		spec  SweepSpec
		field string
	}{
		{"unknown method", SweepSpec{Methods: []string{"compare"}}, "methods[0]"},
		{"unknown server", SweepSpec{Servers: []string{"PDP-11"}}, "servers[0]"},
		{"unknown profile", SweepSpec{FaultProfiles: []string{"none", "apocalyptic"}}, "fault_profiles[1]"},
		{"seeds and range", SweepSpec{Seeds: []float64{1}, SeedRange: &SeedRange{From: 1, To: 2, Step: 1}}, "seeds"},
		{"bad step", SweepSpec{SeedRange: &SeedRange{From: 1, To: 2, Step: 0}}, "seed_range.step"},
		{"inverted range", SweepSpec{SeedRange: &SeedRange{From: 5, To: 1, Step: 1}}, "seed_range.to"},
		{"negative attempts", SweepSpec{Retry: RetrySpec{Attempts: -1}}, "retry.attempts"},
		{"negative backoff", SweepSpec{Retry: RetrySpec{BackoffMS: -1}}, "retry.backoff_ms"},
		{"negative quarantine", SweepSpec{QuarantineAfter: -2}, "quarantine_after"},
		{"negative point timeout", SweepSpec{PointTimeoutMS: -1}, "point_timeout_ms"},
		{"negative deadline", SweepSpec{DeadlineMS: -1}, "deadline_ms"},
		{"too many points", SweepSpec{Servers: []string{"Xeon-E5462"}, Seeds: []float64{1, 2, 3}}, "seeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			maxPoints := 0
			if tc.name == "too many points" {
				maxPoints = 2
			}
			err := tc.spec.Validate(maxPoints)
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("Validate = %v, want *FieldError", err)
			}
			if fe.Field != tc.field {
				t.Errorf("field = %q, want %q", fe.Field, tc.field)
			}
		})
	}
}

func TestValidateDefaultsPass(t *testing.T) {
	var s SweepSpec // all defaults: evaluate × all servers × none × seed 1
	if err := s.Validate(0); err != nil {
		t.Fatalf("zero spec should validate: %v", err)
	}
}

// Expansion is a pure function of the spec: same spec, same points, same
// order, same keys. Recovery depends on this — the WAL journals the spec,
// not the point list.
func TestExpandDeterministic(t *testing.T) {
	s := SweepSpec{
		Methods:       []string{"evaluate", "green500"},
		Servers:       []string{"Xeon-E5462", "Opteron-8347"},
		FaultProfiles: []string{"none", "light"},
		Seeds:         []float64{1, 2, 3},
	}
	if err := s.Validate(0); err != nil {
		t.Fatal(err)
	}
	a, b := s.Expand(), s.Expand()
	if want := 2 * 2 * 2 * 3; len(a) != want {
		t.Fatalf("expanded %d points, want %d", len(a), want)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Errorf("point %d has index %d", i, a[i].Index)
		}
		if a[i].Key == "" {
			t.Errorf("point %d has empty cache key", i)
		}
	}
	// Nesting order: methods outermost, seeds innermost.
	if a[0].Method != "evaluate" || a[len(a)/2].Method != "green500" {
		t.Errorf("method nesting order wrong: %q then %q", a[0].Method, a[len(a)/2].Method)
	}
	if a[0].Seed != 1 || a[1].Seed != 2 || a[2].Seed != 3 {
		t.Errorf("seeds not innermost: %v %v %v", a[0].Seed, a[1].Seed, a[2].Seed)
	}
}

func TestSeedRangeExpansion(t *testing.T) {
	s := SweepSpec{
		Servers:   []string{"Xeon-E5462"},
		SeedRange: &SeedRange{From: 10, To: 12, Step: 1},
	}
	if err := s.Validate(0); err != nil {
		t.Fatal(err)
	}
	pts := s.Expand()
	if len(pts) != 3 {
		t.Fatalf("expanded %d points, want 3", len(pts))
	}
	for i, want := range []float64{10, 11, 12} {
		if pts[i].Seed != want {
			t.Errorf("point %d seed %v, want %v", i, pts[i].Seed, want)
		}
	}
}

// Campaign ids are content addresses: equal specs collide (idempotent
// submission), any changed axis separates.
func TestIDContentAddressed(t *testing.T) {
	a := SweepSpec{Servers: []string{"Xeon-E5462"}, Seeds: []float64{1, 2}}
	b := SweepSpec{Servers: []string{"Xeon-E5462"}, Seeds: []float64{1, 2}}
	if a.ID() != b.ID() {
		t.Error("identical specs got different campaign ids")
	}
	c := b
	c.Name = "other"
	if a.ID() == c.ID() {
		t.Error("differently named specs share a campaign id")
	}
	d := b
	d.Seeds = []float64{1, 3}
	if a.ID() == d.ID() {
		t.Error("different seed lists share a campaign id")
	}
}

// fuzzMaxPoints is the campaign bound FuzzSweepSpec validates under, small
// so that every accepted spec expands quickly.
const fuzzMaxPoints = 64

// FuzzSweepSpec feeds POST /v1/jobs bodies, decoded as the daemon decodes
// them, through validation and expansion. Nothing may panic; every
// rejection is a *FieldError that names a field; an accepted spec expands
// to at most the bound; and its campaign id survives a JSON re-encode, as
// the WAL journals the spec and recovery re-derives the id from it.
func FuzzSweepSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"servers":["Xeon-E5462"],"seeds":[1,2,3]}`,
		`{"name":"n","client":"c","priority":-2,"methods":["evaluate","green500"],"servers":["Xeon-4870","Opteron-8347"],"fault_profiles":["","light","heavy"],"seeds":[-0,1.5e-3],"retry":{"attempts":2,"backoff_ms":5},"quarantine_after":1,"point_timeout_ms":10,"deadline_ms":100}`,
		`{"seed_range":{"from":10,"to":12,"step":1}}`,
		`{"seed_range":{"from":0,"to":1e300,"step":1}}`,
		`{"seed_range":{"from":-1e308,"to":1e308,"step":5e-324}}`,
		`{"seed_range":{"from":0,"to":9007199254740993,"step":1}}`,
		`{"seed_range":{"from":1,"to":0,"step":1}}`,
		`{"seed_range":{"from":0,"to":1,"step":0}}`,
		`{"seeds":[1],"seed_range":{"from":0,"to":1,"step":1}}`,
		`{"methods":["fly"]}`,
		`{"servers":["Cray-1"]}`,
		`{"fault_profiles":["storm"]}`,
		`{"retry":{"attempts":-1}}`,
		`{"deadline_ms":-1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec SweepSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || dec.More() {
			return
		}
		if err := spec.Validate(fuzzMaxPoints); err != nil {
			fe, ok := err.(*FieldError)
			if !ok || fe.Field == "" {
				t.Fatalf("%s: rejection %T %q names no field", body, err, err)
			}
			return
		}
		if n := len(spec.Expand()); n > fuzzMaxPoints {
			t.Fatalf("%s: accepted spec expands to %d points, bound %d", body, n, fuzzMaxPoints)
		}
		enc, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", body, err)
		}
		var back SweepSpec
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%s: decoding the re-encoded %s: %v", body, enc, err)
		}
		if id, want := back.ID(), spec.ID(); id != want {
			t.Fatalf("%s: id %s after a JSON re-encode (%s), was %s", body, id, enc, want)
		}
	})
}
