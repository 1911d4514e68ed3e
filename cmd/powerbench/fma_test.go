package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fuseFreeSymbols matches the functions of the packages that compute a
// run's readings, PMU windows and faults, the random streams they draw
// from and the cache profiles behind the PMU, where no floating-point
// operation may be fused: the same bytes on every platform.
const fuseFreeSymbols = `^powerbench/internal/(meter|fault|pmu|sim|rng|cache)\.`

// TestNoFusedMultiplyAdd cross-compiles powerbench for arm64, whose
// compiler fuses x*y + z unless a float64(...) conversion forbids it, and
// fails on any fused instruction (FMADD, FMSUB, FNM*) in a function of
// the meter, fault, pmu, sim, rng or cache packages. A fused product
// rounds once where amd64 rounds twice, so an arm64 run would log other
// readings. It needs the go tool and takes a few seconds, so -short skips
// it.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles and disassembles the binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "powerbench-arm64")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	out, err := exec.Command(goTool, "tool", "objdump", "-s", fuseFreeSymbols, bin).Output()
	if err != nil {
		t.Fatalf("objdump: %v", err)
	}
	fused, symbols := 0, 0
	var fn string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			fn, _, _ = strings.Cut(name, " ")
			symbols++
			continue
		}
		// An instruction line is location, address, encoding and the
		// instruction, separated by tabs.
		var fields []string
		for _, f := range strings.Split(line, "\t") {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
		if len(fields) < 4 {
			continue
		}
		op, _, _ := strings.Cut(fields[3], " ")
		if strings.HasPrefix(op, "FMADD") || strings.HasPrefix(op, "FMSUB") || strings.HasPrefix(op, "FNM") {
			fused++
			t.Errorf("%s at %s: %s", fn, fields[0], fields[3])
		}
	}
	if symbols == 0 {
		t.Fatalf("objdump found no symbol matching %s", fuseFreeSymbols)
	}
	t.Logf("%d fused instructions in %d functions", fused, symbols)
}
