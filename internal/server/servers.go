package server

import (
	"fmt"
	"strings"
	"sync"

	"powerbench/internal/cache"
)

// The three servers of the paper's Table I. Each is built and calibrated
// once per process, on first use; every constructor call returns a fresh
// copy of that Spec, so mutations by the caller do not affect later
// constructions.
var (
	xeonE5462   = sync.OnceValue(newXeonE5462)
	opteron8347 = sync.OnceValue(newOpteron8347)
	xeon4870    = sync.OnceValue(newXeon4870)
)

// Reference measurement tables transcribed from the paper.
var (
	// refE5462 is Table IV (PPW on Server Xeon-E5462).
	refE5462 = []ReferencePoint{
		{"ep.C", 1, 145.4889, 0.0319},
		{"ep.C", 2, 156.9150, 0.0638},
		{"ep.C", 4, 174.0141, 0.1237},
		{"HPL Mh", 1, 168.4366, 10.5},
		{"HPL Mh", 2, 203.8387, 20.2},
		{"HPL Mh", 4, 231.3697, 36.1},
		{"HPL Mf", 1, 168.1937, 10.6},
		{"HPL Mf", 2, 204.9486, 20.3},
		{"HPL Mf", 4, 235.3179, 37.2},
	}
	// refOpteron is Table V (PPW on Server Opteron-8347).
	refOpteron = []ReferencePoint{
		{"ep.C", 1, 392.6666, 0.0126},
		{"ep.C", 4, 427.6455, 0.0836},
		{"ep.C", 8, 476.9047, 0.1394},
		{"HPL Mh", 1, 408.8880, 3.89},
		{"HPL Mh", 8, 485.6727, 26.3},
		{"HPL Mh", 16, 535.5574, 32.0},
		{"HPL Mf", 1, 412.7283, 3.95},
		{"HPL Mf", 8, 484.0001, 27.1},
		{"HPL Mf", 16, 529.5337, 32.7},
	}
	// ref4870 is Table VI (PPW on Server Xeon-4870).
	ref4870 = []ReferencePoint{
		{"ep.C", 1, 667.2800, 0.0187},
		{"ep.C", 20, 706.7800, 0.3400},
		{"ep.C", 40, 730.9800, 0.7590},
		{"HPL Mh", 1, 676.1600, 8.91},
		{"HPL Mh", 20, 963.8000, 162.0},
		{"HPL Mh", 40, 1118.5400, 339.0},
		{"HPL Mf", 1, 676.3700, 8.08},
		{"HPL Mf", 20, 965.2900, 164.0},
		{"HPL Mf", 40, 1119.6000, 344.0},
	}
)

// ReferencePoints returns the paper's measurement table for a standard
// server name, or nil for custom servers.
func ReferencePoints(name string) []ReferencePoint {
	switch name {
	case "Xeon-E5462":
		return append([]ReferencePoint(nil), refE5462...)
	case "Opteron-8347":
		return append([]ReferencePoint(nil), refOpteron...)
	case "Xeon-4870":
		return append([]ReferencePoint(nil), ref4870...)
	}
	return nil
}

func anchorsOf(refs []ReferencePoint, program string) AnchorCurve {
	var c AnchorCurve
	for _, p := range refs {
		if p.Program == program {
			c = append(c, AnchorPoint{N: float64(p.N), Value: p.GFLOPS})
		}
	}
	return c
}

// clone returns a copy of s that shares no memory with it: the struct and
// its three anchor curves.
func (s *Spec) clone() *Spec {
	c := *s
	c.HPLFull = append(AnchorCurve(nil), s.HPLFull...)
	c.HPLHalf = append(AnchorCurve(nil), s.HPLHalf...)
	c.EP = append(AnchorCurve(nil), s.EP...)
	return &c
}

func mustCalibrate(s *Spec, refs []ReferencePoint) *Spec {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if err := Calibrate(s, refs); err != nil {
		panic(err)
	}
	return s
}

// XeonE5462 returns the calibrated single-chip quad-core Xeon E5462 server
// (§II-A): 4 × 11.2 GFLOPS cores at 2.8 GHz, 8 GB DDR2 on a front-side bus.
func XeonE5462() *Spec { return xeonE5462().clone() }

func newXeonE5462() *Spec {
	s := &Spec{
		Name:             "Xeon-E5462",
		ProcessorType:    "Xeon E5462",
		Cores:            4,
		Chips:            1,
		FreqMHz:          2800,
		GFLOPSPerCore:    11.2,
		MemoryBytes:      8 << 30,
		MemBWBytesPerSec: 6.4e9,
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		// 6 MB L2 shared per core pair → 3 MB effective per core.
		L2:             cache.Config{Name: "L2", SizeBytes: 3 << 20, LineBytes: 64, Ways: 24},
		IdleWatts:      134.3727,
		HPLFull:        anchorsOf(refE5462, "HPL Mf"),
		HPLHalf:        anchorsOf(refE5462, "HPL Mh"),
		EP:             anchorsOf(refE5462, "ep.C"),
		SPECpowerScore: 247,
		Coef:           Coeffs{CommPerCore: 1.0},

		PrimaryCache:   "4x32KB icaches and 4x32KB dcaches",
		SecondaryCache: "6MB (12MB total)",
		TertiaryCache:  "0",
		MemoryDetails:  "8 GB DDR2",
		PowerSupply:    "1 x Unknown",
		Disk:           "400 GB, integrated SAS controller",
	}
	return mustCalibrate(s, refE5462)
}

// Opteron8347 returns the calibrated four-chip, 16-core Opteron 8347 server
// (§II-B): 16 × 7.6 GFLOPS cores at 1.9 GHz, 32 GB DDR2, NUMA.
func Opteron8347() *Spec { return opteron8347().clone() }

func newOpteron8347() *Spec {
	s := &Spec{
		Name:             "Opteron-8347",
		ProcessorType:    "Opteron 8347",
		Cores:            16,
		Chips:            4,
		FreqMHz:          1900,
		GFLOPSPerCore:    7.6,
		MemoryBytes:      32 << 30,
		MemBWBytesPerSec: 17e9,
		L1D:              cache.Config{Name: "L1D", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2},
		L2:               cache.Config{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, Ways: 8},
		// 2 MB L3 shared per quad-core chip → 512 KB effective per core.
		L3:             cache.Config{Name: "L3", SizeBytes: 512 << 10, LineBytes: 64, Ways: 32},
		IdleWatts:      311.5214,
		HPLFull:        anchorsOf(refOpteron, "HPL Mf"),
		HPLHalf:        anchorsOf(refOpteron, "HPL Mh"),
		EP:             anchorsOf(refOpteron, "ep.C"),
		SPECpowerScore: 22.2,
		Coef:           Coeffs{CommPerCore: 0.8},

		PrimaryCache:   "4x64KB icaches and 4x64KB dcaches",
		SecondaryCache: "512KB per core",
		TertiaryCache:  "2048KB per processor",
		MemoryDetails:  "32 GB DDR2",
		PowerSupply:    "1 x Unknown",
		Disk:           "444 GB, integrated SAS controller",
	}
	return mustCalibrate(s, refOpteron)
}

// Xeon4870 returns the calibrated four-chip, 40-core Xeon E7-4870 server
// (§II-C): 40 × 9.6 GFLOPS cores at 2.4 GHz, 128 GB DDR2.
func Xeon4870() *Spec { return xeon4870().clone() }

func newXeon4870() *Spec {
	s := &Spec{
		Name:             "Xeon-4870",
		ProcessorType:    "Xeon E7-4870",
		Cores:            40,
		Chips:            4,
		FreqMHz:          2400,
		GFLOPSPerCore:    9.6,
		MemoryBytes:      128 << 30,
		MemBWBytesPerSec: 40e9,
		L1D:              cache.Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8},
		L2:               cache.Config{Name: "L2", SizeBytes: 256 << 10, LineBytes: 64, Ways: 8},
		// 30 MB L3 shared per ten-core chip → 3 MB effective per core.
		L3:             cache.Config{Name: "L3", SizeBytes: 3 << 20, LineBytes: 64, Ways: 24},
		IdleWatts:      642.2300,
		HPLFull:        anchorsOf(ref4870, "HPL Mf"),
		HPLHalf:        anchorsOf(ref4870, "HPL Mh"),
		EP:             anchorsOf(ref4870, "ep.C"),
		SPECpowerScore: 139,
		Coef:           Coeffs{CommPerCore: 1.0},

		PrimaryCache:   "10x32KB icaches and 10x32KB dcaches",
		SecondaryCache: "256KB per core",
		TertiaryCache:  "30MB per processor",
		MemoryDetails:  "128 GB DDR2",
		PowerSupply:    "3 x Unknown",
		Disk:           "152 GB, integrated SAS controller",
	}
	return mustCalibrate(s, ref4870)
}

// Names returns the Table I server names in the paper's order.
func Names() []string { return []string{"Xeon-E5462", "Opteron-8347", "Xeon-4870"} }

// All returns the three paper servers, calibrated, in the paper's order.
func All() []*Spec {
	return []*Spec{XeonE5462(), Opteron8347(), Xeon4870()}
}

// ByName returns a calibrated standard server by its Table I name.
func ByName(name string) (*Spec, error) {
	switch name {
	case "Xeon-E5462":
		return XeonE5462(), nil
	case "Opteron-8347":
		return Opteron8347(), nil
	case "Xeon-4870":
		return Xeon4870(), nil
	}
	names := Names()
	last := len(names) - 1
	return nil, fmt.Errorf("server: unknown server %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
}
