package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/cache"
	"powerbench/internal/server"
)

// Reordering fields in a JSON spec must not change the canonical hash: the
// hash is a function of the decoded struct, not of the wire bytes.
func TestCanonicalHashJSONFieldOrderInvariant(t *testing.T) {
	a := `{
		"Name": "custom", "ProcessorType": "TestChip", "Cores": 8, "Chips": 2,
		"FreqMHz": 2500, "GFLOPSPerCore": 10, "MemoryBytes": 8589934592,
		"MemBWBytesPerSec": 2.5e10, "IdleWatts": 120
	}`
	b := `{
		"IdleWatts": 120, "MemBWBytesPerSec": 2.5e10, "MemoryBytes": 8589934592,
		"GFLOPSPerCore": 10, "FreqMHz": 2500,
		"Chips": 2, "Cores": 8, "ProcessorType": "TestChip", "Name": "custom"
	}`
	var sa, sb server.Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	opts := HashOpts{Method: "evaluate"}
	ha := CanonicalHash(&sa, 1, opts)
	hb := CanonicalHash(&sb, 1, opts)
	if ha != hb {
		t.Errorf("field reordering changed the hash:\n  %s\n  %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not a sha256 hex digest", ha)
	}
}

// Every input the hash covers must perturb it.
func TestCanonicalHashSensitivity(t *testing.T) {
	base := server.XeonE5462()
	opts := HashOpts{Method: "evaluate"}
	h0 := CanonicalHash(base, 1, opts)

	if h := CanonicalHash(base, 2, opts); h == h0 {
		t.Error("seed change did not change the hash")
	}
	if h := CanonicalHash(base, 1, HashOpts{Method: "green500"}); h == h0 {
		t.Error("method change did not change the hash")
	}
	if h := CanonicalHash(base, 1, HashOpts{Method: "evaluate", FaultProfile: "heavy"}); h == h0 {
		t.Error("fault profile change did not change the hash")
	}
	mod := server.XeonE5462()
	mod.IdleWatts++
	if h := CanonicalHash(mod, 1, opts); h == h0 {
		t.Error("spec change did not change the hash")
	}
	// Adjacent string fields must not alias under concatenation.
	x := server.XeonE5462()
	x.Name, x.ProcessorType = "ab", "c"
	y := server.XeonE5462()
	y.Name, y.ProcessorType = "a", "bc"
	if CanonicalHash(x, 1, opts) == CanonicalHash(y, 1, opts) {
		t.Error("adjacent string fields alias in the canonical rendering")
	}
}

// "" and "none" both name the clean path and must hash identically, and the
// hash must be stable across calls (no map iteration, no time).
func TestCanonicalHashStability(t *testing.T) {
	spec := server.Xeon4870()
	a := CanonicalHash(spec, 7, HashOpts{Method: "evaluate", FaultProfile: ""})
	b := CanonicalHash(spec, 7, HashOpts{Method: "evaluate", FaultProfile: "none"})
	if a != b {
		t.Errorf("empty and %q fault profiles hash differently", "none")
	}
	for i := 0; i < 10; i++ {
		if got := CanonicalHash(spec, 7, HashOpts{Method: "evaluate"}); got != a {
			t.Fatalf("hash not stable across calls: %s vs %s", got, a)
		}
	}
}

// The fmt-based renderer CanonicalHash used to write field by field into
// the hash; kept as the oracle the append renderer must reproduce byte for
// byte.
func oracleCanonical(spec *server.Spec, seed float64, opts HashOpts) []byte {
	var w bytes.Buffer
	oracleString(&w, "powerbench-canonical-v1")
	oracleString(&w, opts.Method)
	profile := opts.FaultProfile
	if profile == "" {
		profile = "none"
	}
	oracleString(&w, profile)
	oracleFloat(&w, seed)
	oracleSpec(&w, spec)
	return w.Bytes()
}

func oracleString(w io.Writer, s string) { fmt.Fprintf(w, "%d:%s;", len(s), s) }

func oracleFloat(w io.Writer, v float64) { oracleString(w, strconv.FormatFloat(v, 'g', -1, 64)) }

func oracleInt(w io.Writer, v int64) { oracleString(w, strconv.FormatInt(v, 10)) }

func oracleCache(w io.Writer, c cache.Config) {
	oracleString(w, c.Name)
	oracleInt(w, int64(c.SizeBytes))
	oracleInt(w, int64(c.LineBytes))
	oracleInt(w, int64(c.Ways))
}

func oracleCurve(w io.Writer, c server.AnchorCurve) {
	oracleInt(w, int64(len(c)))
	for _, p := range c {
		oracleFloat(w, p.N)
		oracleFloat(w, p.Value)
	}
}

func oracleSpec(w io.Writer, s *server.Spec) {
	oracleString(w, s.Name)
	oracleString(w, s.ProcessorType)
	oracleInt(w, int64(s.Cores))
	oracleInt(w, int64(s.Chips))
	oracleFloat(w, s.FreqMHz)
	oracleFloat(w, s.GFLOPSPerCore)
	oracleInt(w, int64(s.MemoryBytes))
	oracleFloat(w, s.MemBWBytesPerSec)
	oracleCache(w, s.L1D)
	oracleCache(w, s.L2)
	oracleCache(w, s.L3)
	oracleFloat(w, s.IdleWatts)
	oracleFloat(w, s.Coef.Active)
	oracleFloat(w, s.Coef.PerCore)
	oracleFloat(w, s.Coef.Compute)
	oracleFloat(w, s.Coef.FPCompute)
	oracleFloat(w, s.Coef.UncoreBW)
	oracleFloat(w, s.Coef.MemFoot)
	oracleFloat(w, s.Coef.CommPerCore)
	oracleCurve(w, s.HPLFull)
	oracleCurve(w, s.HPLHalf)
	oracleCurve(w, s.EP)
	oracleFloat(w, s.SPECpowerScore)
	oracleString(w, s.PrimaryCache)
	oracleString(w, s.SecondaryCache)
	oracleString(w, s.TertiaryCache)
	oracleString(w, s.MemoryDetails)
	oracleString(w, s.PowerSupply)
	oracleString(w, s.Disk)
}

// fuzzCurve decodes raw into anchor points, 16 bytes (two float64 bit
// patterns) per point, so the fuzzer reaches every float including NaN
// payloads and subnormals.
func fuzzCurve(raw []byte) server.AnchorCurve {
	var c server.AnchorCurve
	for ; len(raw) >= 16; raw = raw[16:] {
		c = append(c, server.AnchorPoint{
			N:     math.Float64frombits(binary.LittleEndian.Uint64(raw)),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
		})
	}
	return c
}

// FuzzCanonicalHash checks the append renderer against the fmt oracle
// over the request fields, every string field of the spec (multi-byte and
// longer than the stack buffer included), the integer fields and a spread
// of floats: ±0, NaN, ±Inf and subnormals.
func FuzzCanonicalHash(f *testing.F) {
	long := strings.Repeat("é—x", 400)
	sub := math.SmallestNonzeroFloat64
	f.Add(1.0, "evaluate", "", "Xeon-E5462", "Xeon E5462", "L1D", "6MB (12MB total)", "8 GB DDR2", 4, uint64(8<<30), 2800.0, 134.3727, -0.0, []byte{})
	f.Add(math.NaN(), "green500", "light", "", "", "", "", "", 0, uint64(0), math.Inf(1), math.Inf(-1), sub, []byte{1, 2, 3})
	f.Add(1e300, "compare", "heavy", long, "Ψ", long, "", long, -1, uint64(math.MaxUint64), math.Copysign(0, -1), -sub, math.NaN(), make([]byte, 48))
	f.Add(-7.5, "", "none", "a\x00b", "\xff\xfe", "L3", long, "日本語", math.MaxInt32, uint64(1), 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, []byte("0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, seed float64, method, profile, name, ptype, cacheName, desc, disk string,
		cores int, mem uint64, freq, idle, coef float64, curve []byte) {
		spec := &server.Spec{
			Name: name, ProcessorType: ptype, Cores: cores, Chips: -cores,
			FreqMHz: freq, GFLOPSPerCore: coef, MemoryBytes: mem, MemBWBytesPerSec: idle,
			L1D:       cache.Config{Name: cacheName, SizeBytes: cores, LineBytes: int(mem), Ways: -1},
			L2:        cache.Config{Name: desc},
			L3:        cache.Config{Name: name + cacheName, Ways: cores},
			IdleWatts: idle,
			Coef: server.Coeffs{Active: coef, PerCore: freq, Compute: idle, FPCompute: seed,
				UncoreBW: -coef, MemFoot: -freq, CommPerCore: -idle},
			HPLFull:        fuzzCurve(curve),
			HPLHalf:        server.AnchorCurve{},
			EP:             fuzzCurve(curve[len(curve)/2:]),
			SPECpowerScore: coef,
			PrimaryCache:   desc, SecondaryCache: ptype, TertiaryCache: method,
			MemoryDetails: profile, PowerSupply: disk + desc, Disk: disk,
		}
		opts := HashOpts{Method: method, FaultProfile: profile}
		got := appendCanonical(nil, spec, seed, opts)
		want := oracleCanonical(spec, seed, opts)
		if !bytes.Equal(got, want) {
			t.Fatalf("rendering differs from the fmt oracle:\n got %q\nwant %q", got, want)
		}
		if key := CanonicalHash(spec, seed, opts); key != fmt.Sprintf("%x", sha256.Sum256(want)) {
			t.Fatalf("CanonicalHash %s is not the SHA-256 of the rendering", key)
		}
	})
}

// The stack buffer holds a built-in spec's rendering, so the returned key
// string is the only allocation. A per-field string, a fmt call or a
// buffer that escapes would each add at least one.
func TestCanonicalHashAllocs(t *testing.T) {
	for _, spec := range server.All() {
		if n := len(appendCanonical(nil, spec, 1e300, HashOpts{Method: "green500", FaultProfile: "light"})); n > 1024 {
			t.Errorf("%s renders to %d bytes, more than the 1024-byte stack buffer", spec.Name, n)
		}
		opts := HashOpts{Method: "evaluate"}
		allocs := testing.AllocsPerRun(100, func() { CanonicalHash(spec, 7, opts) })
		if allocs > 1 {
			t.Errorf("%s: CanonicalHash allocated %v times per call, want <= 1", spec.Name, allocs)
		}
	}
}
