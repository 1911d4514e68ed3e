package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"

	"powerbench/internal/cache"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// HashOpts names the evaluation variant a CanonicalHash key covers. Only
// options that can change the result bytes belong here: worker counts,
// telemetry and retry backoff are deliberately excluded because the
// pipeline guarantees byte-identical output across them.
type HashOpts struct {
	// Method is the evaluation flavor: "evaluate", "green500" or "compare".
	Method string
	// FaultProfile is the active fault-injection profile name ("" and
	// "none" hash identically: both select the clean path).
	FaultProfile string
}

// CanonicalHash returns a deterministic, content-addressed key for one
// (spec, seed, opts) evaluation request: the SHA-256 of a canonical
// rendering that writes every Spec field in declared order with exact
// float formatting. Because the hash is computed from the decoded struct,
// not from the request's wire bytes, two JSON requests that differ only in
// field order (or whitespace) produce the same key — the property the
// serve layer's result cache and request dedup rely on.
//
// The rendering is built in one stack buffer (a built-in spec fits; longer
// strings grow it on the heap), so the returned string is the only
// allocation.
func CanonicalHash(spec *server.Spec, seed float64, opts HashOpts) string {
	var buf [1024]byte
	hx := hexSum(appendCanonical(buf[:0], spec, seed, opts))
	return string(hx[:])
}

// hexSum is the lowercase-hex SHA-256 of a canonical rendering: the digest
// every key is made of.
func hexSum(rendering []byte) [2 * sha256.Size]byte {
	sum := sha256.Sum256(rendering)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return out
}

// appendCanonical appends the canonical rendering CanonicalHash digests:
// the per-request prefix, then the spec part.
func appendCanonical(b []byte, spec *server.Spec, seed float64, opts HashOpts) []byte {
	return appendSpec(appendPrefix(b, seed, opts), spec)
}

// appendPrefix appends the per-request part of the canonical rendering:
// version, method, profile and seed. It comes before the spec part, so a
// key over a memoized spec part still hashes the whole rendering.
func appendPrefix(b []byte, seed float64, opts HashOpts) []byte {
	b = appendField(b, "powerbench-canonical-v1")
	b = appendField(b, opts.Method)
	profile := opts.FaultProfile
	if profile == "" {
		profile = "none"
	}
	b = appendField(b, profile)
	return appendFloat(b, seed)
}

// ResultKey is the canonical cache key of one computation: the method, a
// '|', then each spec's CanonicalHash. A comparison chains its specs'
// hashes with '+' in input order — the per-server seeds (seed+i) and the
// output columns both depend on that order. The serve layer's result
// cache, campaign points and loadgen's shard affinity all key through
// here or BuiltinResultKey, and the serve layer's peer routes accept
// exactly this shape. The key is built in one allocation.
func ResultKey(method string, seed float64, profile string, specs ...*server.Spec) string {
	var buf [1024]byte
	prefix := appendPrefix(buf[:0], seed, HashOpts{Method: method, FaultProfile: profile})
	var key strings.Builder
	startKey(&key, method, len(specs))
	for i, sp := range specs {
		joinKey(&key, i, appendSpec(prefix, sp))
	}
	return key.String()
}

// BuiltinResultKey is ResultKey over built-in servers named by their
// Table I names. Each spec part comes from a rendering memoized once per
// process, so the key formats no field of any spec. unknown is the index
// of the first name that is not a built-in server (the key is then
// empty), or -1.
func BuiltinResultKey(method string, seed float64, profile string, names ...string) (key string, unknown int) {
	for i, name := range names {
		if builtinNamed(name) == nil {
			return "", i
		}
	}
	var buf [1024]byte
	prefix := appendPrefix(buf[:0], seed, HashOpts{Method: method, FaultProfile: profile})
	var k strings.Builder
	startKey(&k, method, len(names))
	for i, name := range names {
		joinKey(&k, i, append(prefix, builtinNamed(name).spec...))
	}
	return k.String(), -1
}

// startKey sizes key for a result key over n systems and writes the
// method.
func startKey(key *strings.Builder, method string, n int) {
	key.Grow(len(method) + (1+2*sha256.Size)*n)
	key.WriteString(method)
}

// joinKey appends the i-th system's hash to a result key: '|' before the
// first, '+' before the rest.
func joinKey(key *strings.Builder, i int, rendering []byte) {
	sep := byte('+')
	if i == 0 {
		sep = '|'
	}
	key.WriteByte(sep)
	hx := hexSum(rendering)
	key.Write(hx[:])
}

// builtin is what is memoized of one built-in server: the spec part of
// its canonical rendering, and its plan, which no one may modify.
type builtin struct {
	name string
	spec []byte
	plan []workload.Model
}

// builtins renders the spec part of each built-in server once per
// process, about 2 KB for all three, and plans its states. A built-in's
// plan never fails (TestPlanStates); a nil plan would leave the server to
// PlanStates.
var builtins = sync.OnceValue(func() []builtin {
	all := server.All()
	out := make([]builtin, len(all))
	for i, sp := range all {
		states, _ := PlanStates(sp)
		out[i] = builtin{name: sp.Name, spec: appendSpec(nil, sp), plan: states}
	}
	return out
})

// builtinNamed returns the memoized material of the named built-in
// server, or nil for any other name.
func builtinNamed(name string) *builtin {
	all := builtins()
	for i := range all {
		if all[i].name == name {
			return &all[i]
		}
	}
	return nil
}

// appendField appends a length-prefixed field, "len:value;", so that
// adjacent fields can never alias ("ab"+"c" vs "a"+"bc").
func appendField[T string | []byte](b []byte, v T) []byte {
	b = append(strconv.AppendInt(b, int64(len(v)), 10), ':')
	return append(append(b, v...), ';')
}

// appendFloat renders a float with strconv's exact shortest round-trip
// form, so every distinct float64 bit pattern (NaN aside) hashes distinctly
// and equal values always hash equally.
func appendFloat(b []byte, v float64) []byte {
	var num [32]byte
	return appendField(b, strconv.AppendFloat(num[:0], v, 'g', -1, 64))
}

func appendInt(b []byte, v int64) []byte {
	var num [24]byte
	return appendField(b, strconv.AppendInt(num[:0], v, 10))
}

func appendCache(b []byte, c cache.Config) []byte {
	b = appendField(b, c.Name)
	b = appendInt(b, int64(c.SizeBytes))
	b = appendInt(b, int64(c.LineBytes))
	return appendInt(b, int64(c.Ways))
}

func appendCurve(b []byte, c server.AnchorCurve) []byte {
	b = appendInt(b, int64(len(c)))
	for _, p := range c {
		b = appendFloat(b, p.N)
		b = appendFloat(b, p.Value)
	}
	return b
}

// appendSpec renders every Spec field in declared order. The descriptive
// Table I strings are included too: they do not perturb the simulation,
// but a cache key must cover everything a response could echo.
func appendSpec(b []byte, s *server.Spec) []byte {
	b = appendField(b, s.Name)
	b = appendField(b, s.ProcessorType)
	b = appendInt(b, int64(s.Cores))
	b = appendInt(b, int64(s.Chips))
	b = appendFloat(b, s.FreqMHz)
	b = appendFloat(b, s.GFLOPSPerCore)
	b = appendInt(b, int64(s.MemoryBytes))
	b = appendFloat(b, s.MemBWBytesPerSec)
	b = appendCache(b, s.L1D)
	b = appendCache(b, s.L2)
	b = appendCache(b, s.L3)
	b = appendFloat(b, s.IdleWatts)
	b = appendFloat(b, s.Coef.Active)
	b = appendFloat(b, s.Coef.PerCore)
	b = appendFloat(b, s.Coef.Compute)
	b = appendFloat(b, s.Coef.FPCompute)
	b = appendFloat(b, s.Coef.UncoreBW)
	b = appendFloat(b, s.Coef.MemFoot)
	b = appendFloat(b, s.Coef.CommPerCore)
	b = appendCurve(b, s.HPLFull)
	b = appendCurve(b, s.HPLHalf)
	b = appendCurve(b, s.EP)
	b = appendFloat(b, s.SPECpowerScore)
	b = appendField(b, s.PrimaryCache)
	b = appendField(b, s.SecondaryCache)
	b = appendField(b, s.TertiaryCache)
	b = appendField(b, s.MemoryDetails)
	b = appendField(b, s.PowerSupply)
	return appendField(b, s.Disk)
}
