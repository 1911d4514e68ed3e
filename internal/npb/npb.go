// Package npb implements the NAS Parallel Benchmarks as the paper uses
// them: all five kernels (EP, IS, CG, MG, FT) and the three
// pseudo-applications (BT, SP, LU), in two forms.
//
// Native form: each program has a Go implementation running rank-parallel
// over the message-passing runtime of internal/comm. EP is a faithful
// transcription of the reference algorithm (46-bit randlc stream, Gaussian
// acceptance, annulus counts) with the published verification sums for the
// small classes. IS, CG, MG and FT implement the genuine algorithms
// (parallel bucket sort, sparse conjugate gradient, multigrid V-cycles,
// 3-D FFT evolution) with structural verification. BT, SP and LU are
// structurally faithful reduced solvers (tridiagonal / pentadiagonal ADI
// line sweeps and SSOR on a scalar 3-D grid rather than the full 5-variable
// Navier-Stokes systems) — the reduction is documented in DESIGN.md.
//
// Model form: NewModel produces the workload model of a paper-scale run
// (class A/B/C at a given process count on a given server) for the
// simulation engine, using the class tables below for memory footprints
// and operation counts and the server's calibrated characteristics for
// delivered rates.
package npb

import (
	"fmt"
	"math"
	"strconv"
)

// Program identifies one NPB program.
type Program string

// The eight NPB programs.
const (
	EP Program = "ep"
	IS Program = "is"
	CG Program = "cg"
	MG Program = "mg"
	FT Program = "ft"
	BT Program = "bt"
	SP Program = "sp"
	LU Program = "lu"
)

// Programs lists all eight in the paper's figure order.
var Programs = []Program{BT, CG, EP, FT, IS, LU, MG, SP}

// Kernels lists the five kernels.
var Kernels = []Program{IS, EP, CG, MG, FT}

// PseudoApps lists the three pseudo-applications.
var PseudoApps = []Program{BT, SP, LU}

// Class is an NPB problem size. The paper uses A, B and C on single
// servers (W too small, D/E too large — §III-C).
type Class byte

// Problem classes.
const (
	ClassS Class = 'S'
	ClassW Class = 'W'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// Classes lists the single-server classes the paper evaluates.
var Classes = []Class{ClassA, ClassB, ClassC}

func (c Class) String() string { return string(c) }

// ParseClass converts a one-letter class name.
func ParseClass(s string) (Class, error) {
	if len(s) == 1 {
		switch Class(s[0]) {
		case ClassS, ClassW, ClassA, ClassB, ClassC:
			return Class(s[0]), nil
		}
	}
	return 0, fmt.Errorf("npb: unknown class %q (want S, W, A, B or C)", s)
}

// ValidProcs reports whether a program accepts a process count: EP runs on
// any number, BT and SP require perfect squares, and the remaining
// programs require powers of two ("The NPB has limitations for the number
// of processes", §III-C).
func ValidProcs(p Program, procs int) bool {
	if procs < 1 {
		return false
	}
	switch p {
	case EP:
		return true
	case BT, SP:
		r := int(math.Round(math.Sqrt(float64(procs))))
		return r*r == procs
	default:
		return procs&(procs-1) == 0
	}
}

// ProcCounts returns the valid process counts for a program up to max, in
// ascending order.
func ProcCounts(p Program, max int) []int {
	var out []int
	for n := 1; n <= max; n++ {
		if ValidProcs(p, n) {
			out = append(out, n)
		}
	}
	return out
}

// RunName renders the paper's run label, e.g. "ep.C.4".
func RunName(p Program, c Class, procs int) string {
	return string(p) + "." + c.String() + "." + strconv.Itoa(procs)
}
