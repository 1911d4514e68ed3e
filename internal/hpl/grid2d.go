package hpl

import (
	"fmt"
	"math"
	"time"

	"powerbench/internal/comm"
	"powerbench/internal/linalg"
	"powerbench/internal/rng"
)

// This file implements HPL's actual distributed algorithm: right-looking
// LU with partial pivoting on a 2-D block-cyclic P×Q process grid.
// Block (bi, bj) lives on grid process (bi mod P, bj mod Q); the panel
// factorization pivot search is a max-loc reduction over a process-column
// communicator, pivot rows are exchanged between process rows, factored
// panels broadcast along process rows, the U block row broadcasts along
// process columns, and the trailing update is local — exactly the
// communication structure of the reference implementation, built on the
// runtime's Comm_split sub-communicators.

// Grid2DResult reports a 2-D distributed run.
type Grid2DResult struct {
	N, NB, P, Q int
	Seconds     float64
	GFLOPS      float64
	Residual    float64
	OK          bool
	Messages    int64
	Bytes       int64
	// Stats is the per-collective communication breakdown of the run
	// (panel-broadcast volume, pivot allreduce traffic, barrier time).
	Stats comm.Stats
}

// localPanel is the per-rank view of one factored panel: the L values for
// the rows this rank owns (keyed by global row), each a width-long slice.
type localPanel map[int][]float64

// gridRank owns the block-cyclic local data of one process.
type gridRank struct {
	p, q, P, Q int
	n, nb      int
	// blocks[bi][bj] is a row-major (rows(bi) × cols(bj)) block.
	blocks map[int]map[int][]float64
}

func (g *gridRank) blockRows(bi int) int {
	hi := (bi + 1) * g.nb
	if hi > g.n {
		hi = g.n
	}
	return hi - bi*g.nb
}

func (g *gridRank) ownsRow(i int) bool { return (i/g.nb)%g.P == g.p }
func (g *gridRank) ownsCol(j int) bool { return (j/g.nb)%g.Q == g.q }
func (g *gridRank) rowOwner(i int) int { return (i / g.nb) % g.P }

func (g *gridRank) at(i, j int) float64 {
	return g.blocks[i/g.nb][j/g.nb][(i%g.nb)*g.blockCols(j/g.nb)+j%g.nb]
}

func (g *gridRank) set(i, j int, v float64) {
	g.blocks[i/g.nb][j/g.nb][(i%g.nb)*g.blockCols(j/g.nb)+j%g.nb] = v
}

func (g *gridRank) blockCols(bj int) int {
	hi := (bj + 1) * g.nb
	if hi > g.n {
		hi = g.n
	}
	return hi - bj*g.nb
}

// ownedCols returns this rank's global column indices in [lo, hi).
func (g *gridRank) ownedCols(lo, hi int) []int {
	var out []int
	for j := lo; j < hi; j++ {
		if g.ownsCol(j) {
			out = append(out, j)
		}
	}
	return out
}

// ownedRows returns this rank's global row indices in [lo, hi).
func (g *gridRank) ownedRows(lo, hi int) []int {
	var out []int
	for i := lo; i < hi; i++ {
		if g.ownsRow(i) {
			out = append(out, i)
		}
	}
	return out
}

// RunGrid2D factorizes and solves a random N×N system on a P×Q grid.
func RunGrid2D(n, nb, p, q int) (Grid2DResult, error) {
	if n <= 0 || nb <= 0 || nb > n || p <= 0 || q <= 0 {
		return Grid2DResult{}, fmt.Errorf("hpl: invalid grid parameters N=%d NB=%d P=%d Q=%d", n, nb, p, q)
	}
	// Deterministic global system. The diagonal shift keeps it well
	// conditioned; partial pivoting still fires on the off-diagonal
	// magnitudes within panels (SolveGrid2D accepts arbitrary systems,
	// including ones that demand heavy pivoting — see the tests).
	s := rng.NewStream(rng.DefaultSeed, rng.A)
	a := linalg.NewMatrix(n, n)
	a.FillRandom(s)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = s.Next() - 0.5
	}
	return SolveGrid2D(a, b, nb, p, q)
}

// SolveGrid2D factorizes and solves a caller-supplied system A·x = b on a
// P×Q block-cyclic grid; A and b are not modified.
func SolveGrid2D(a *linalg.Matrix, b []float64, nb, p, q int) (Grid2DResult, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return Grid2DResult{}, fmt.Errorf("hpl: grid solve needs a square system, got %dx%d with b of %d", a.Rows, a.Cols, len(b))
	}
	if n <= 0 || nb <= 0 || nb > n || p <= 0 || q <= 0 {
		return Grid2DResult{}, fmt.Errorf("hpl: invalid grid parameters N=%d NB=%d P=%d Q=%d", n, nb, p, q)
	}
	nBlocks := (n + nb - 1) / nb

	// Distribute blocks.
	ranks := make([]*gridRank, p*q)
	for pi := 0; pi < p; pi++ {
		for qi := 0; qi < q; qi++ {
			g := &gridRank{p: pi, q: qi, P: p, Q: q, n: n, nb: nb, blocks: map[int]map[int][]float64{}}
			for bi := pi; bi < nBlocks; bi += p {
				g.blocks[bi] = map[int][]float64{}
				for bj := qi; bj < nBlocks; bj += q {
					rows, cols := g.blockRows(bi), g.blockCols(bj)
					blk := make([]float64, rows*cols)
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							blk[r*cols+c] = a.At(bi*nb+r, bj*nb+c)
						}
					}
					g.blocks[bi][bj] = blk
				}
			}
			ranks[pi*q+qi] = g
		}
	}

	globalPivots := make([]int, n)
	start := time.Now()
	w := comm.NewWorld(p * q)
	w.Run(func(cm *comm.Comm) {
		me := ranks[cm.Rank()]
		rowComm := cm.Split(me.p, me.q)      // same process row; sub-rank = q
		colComm := cm.Split(1000+me.q, me.p) // same process column; sub-rank = p

		for kb := 0; kb < nBlocks; kb++ {
			col0 := kb * nb
			col1 := col0 + nb
			if col1 > n {
				col1 = n
			}
			width := col1 - col0
			qOwner := kb % q
			pivots := make([]int, width)

			// --- Panel factorization on process column qOwner.
			if me.q == qOwner {
				for j := 0; j < width; j++ {
					g := col0 + j
					// Max-loc over owned rows ≥ g in column g.
					best, bestRow := -1.0, n
					for _, i := range me.ownedRows(g, n) {
						if v := math.Abs(me.at(i, g)); v > best {
							best, bestRow = v, i
						}
					}
					gmax := colComm.Allreduce([]float64{best}, comm.OpMax)[0]
					cand := float64(n)
					if best == gmax {
						cand = float64(bestRow)
					}
					piv := int(colComm.Allreduce([]float64{cand}, comm.OpMin)[0])
					pivots[j] = piv

					// Swap rows g and piv within the panel columns.
					me.exchangeRows(colComm, g, piv, col0, col1, 100+j)

					// Broadcast the pivot row's panel segment from its
					// (post-swap) owner, then scale and update below.
					rowSeg := make([]float64, width)
					if me.ownsRow(g) {
						for jj := 0; jj < width; jj++ {
							rowSeg[jj] = me.at(g, col0+jj)
						}
					}
					rowSeg = subBcastFrom(colComm, me.rowOwner(g), rowSeg)
					d := rowSeg[j]
					for _, i := range me.ownedRows(g+1, n) {
						l := me.at(i, g) / d
						me.set(i, g, l)
						if l == 0 {
							continue
						}
						for jj := j + 1; jj < width; jj++ {
							me.set(i, col0+jj, me.at(i, col0+jj)-l*rowSeg[jj])
						}
					}
				}
			}

			// --- Broadcast pivots along process rows.
			fp := make([]float64, width)
			if me.q == qOwner {
				for j, v := range pivots {
					fp[j] = float64(v)
				}
			}
			fp = subBcastFrom(rowComm, qOwner, fp)
			for j := range pivots {
				pivots[j] = int(fp[j])
			}
			if cm.Rank() == 0 {
				copy(globalPivots[col0:col1], pivots)
			}

			// --- Apply the swaps to all owned columns outside the panel.
			for j := 0; j < width; j++ {
				g := col0 + j
				piv := pivots[j]
				me.exchangeRowsOutsidePanel(colComm, g, piv, col0, col1, 500+j)
			}

			// --- Broadcast the factored panel along process rows: each
			// rank needs the L values for its own global rows.
			panel := localPanel{}
			myPanelRows := me.ownedRows(col0, n)
			buf := make([]float64, len(myPanelRows)*width)
			if me.q == qOwner {
				for r, i := range myPanelRows {
					for jj := 0; jj < width; jj++ {
						buf[r*width+jj] = me.at(i, col0+jj)
					}
				}
			}
			buf = subBcastFrom(rowComm, qOwner, buf)
			for r, i := range myPanelRows {
				panel[i] = buf[r*width : (r+1)*width]
			}

			if col1 == n {
				cm.Barrier()
				continue
			}

			// --- U block row: process row pOwner solves L11·u = a for its
			// owned columns right of the panel.
			pOwner := kb % p
			myTrailCols := me.ownedCols(col1, n)
			uRow := make([]float64, len(myTrailCols)*width)
			if me.p == pOwner {
				for ci, gcol := range myTrailCols {
					u := make([]float64, width)
					for jj := 0; jj < width; jj++ {
						u[jj] = me.at(col0+jj, gcol)
					}
					// Unit-lower-triangular solve: u[ii] -= L[ii][jj]·u[jj].
					for jj := 0; jj < width; jj++ {
						ujj := u[jj]
						if ujj == 0 {
							continue
						}
						for ii := jj + 1; ii < width; ii++ {
							u[ii] -= panel[col0+ii][jj] * ujj
						}
					}
					for jj := 0; jj < width; jj++ {
						me.set(col0+jj, gcol, u[jj])
					}
					copy(uRow[ci*width:], u)
				}
			}
			// Broadcast U12 down process columns.
			uRow = subBcastFrom(colComm, pOwner, uRow)

			// --- Trailing update: A22 -= L21 · U12 on owned cells.
			trailRows := me.ownedRows(col1, n)
			for _, i := range trailRows {
				l := panel[i]
				for ci, gcol := range myTrailCols {
					var sum float64
					u := uRow[ci*width : (ci+1)*width]
					for jj := 0; jj < width; jj++ {
						sum += l[jj] * u[jj]
					}
					if sum != 0 {
						me.set(i, gcol, me.at(i, gcol)-sum)
					}
				}
			}
			cm.Barrier()
		}
	})
	elapsed := time.Since(start).Seconds()

	// Assemble and validate at the front end.
	lu := linalg.NewMatrix(n, n)
	for _, g := range ranks {
		for bi, row := range g.blocks {
			for bj, blk := range row {
				rows, cols := g.blockRows(bi), g.blockCols(bj)
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						lu.Set(bi*nb+r, bj*nb+c, blk[r*cols+c])
					}
				}
			}
		}
	}
	f := &linalg.LUFactors{LU: lu, Piv: globalPivots}
	x, err := f.Solve(b)
	if err != nil {
		return Grid2DResult{}, fmt.Errorf("hpl: grid solve failed: %w", err)
	}
	res := linalg.ScaledResidual(a, x, b)
	st := w.Stats()
	return Grid2DResult{
		N: n, NB: nb, P: p, Q: q,
		Seconds:  elapsed,
		GFLOPS:   FlopCount(n) / elapsed / 1e9,
		Residual: res,
		OK:       res < residualThreshold,
		Messages: w.Messages(),
		Bytes:    w.Bytes(),
		Stats:    st,
	}, nil
}

// subBcastFrom broadcasts buf from the given sub-rank (Bcast's root is a
// sub-rank; non-root callers may pass a buffer of the right length).
func subBcastFrom(sc *comm.SubComm, root int, buf []float64) []float64 {
	return sc.Bcast(root, buf)
}

// exchangeRows swaps rows r1 and r2 over columns [c0, c1) among the
// process column's ranks (both rows' segments live on exactly one rank
// each within a process column).
func (g *gridRank) exchangeRows(colComm *comm.SubComm, r1, r2 int, c0, c1, tag int) {
	if r1 == r2 {
		return
	}
	o1, o2 := g.rowOwner(r1), g.rowOwner(r2)
	cols := g.ownedCols(c0, c1)
	if len(cols) == 0 {
		return
	}
	switch {
	case o1 == g.p && o2 == g.p:
		for _, j := range cols {
			v1, v2 := g.at(r1, j), g.at(r2, j)
			g.set(r1, j, v2)
			g.set(r2, j, v1)
		}
	case o1 == g.p:
		seg := make([]float64, len(cols))
		for k, j := range cols {
			seg[k] = g.at(r1, j)
		}
		colComm.Send(o2, tag, seg)
		in := colComm.RecvFloat64s(o2, tag)
		for k, j := range cols {
			g.set(r1, j, in[k])
		}
	case o2 == g.p:
		seg := make([]float64, len(cols))
		for k, j := range cols {
			seg[k] = g.at(r2, j)
		}
		colComm.Send(o1, tag, seg)
		in := colComm.RecvFloat64s(o1, tag)
		for k, j := range cols {
			g.set(r2, j, in[k])
		}
	}
}

// exchangeRowsOutsidePanel swaps rows r1 and r2 over every owned column
// except the panel range [c0, c1).
func (g *gridRank) exchangeRowsOutsidePanel(colComm *comm.SubComm, r1, r2 int, c0, c1, tag int) {
	if r1 == r2 {
		return
	}
	o1, o2 := g.rowOwner(r1), g.rowOwner(r2)
	if o1 != g.p && o2 != g.p {
		return
	}
	var cols []int
	for j := 0; j < g.n; j++ {
		if j >= c0 && j < c1 {
			continue
		}
		if g.ownsCol(j) {
			cols = append(cols, j)
		}
	}
	if len(cols) == 0 {
		return
	}
	switch {
	case o1 == g.p && o2 == g.p:
		for _, j := range cols {
			v1, v2 := g.at(r1, j), g.at(r2, j)
			g.set(r1, j, v2)
			g.set(r2, j, v1)
		}
	case o1 == g.p:
		seg := make([]float64, len(cols))
		for k, j := range cols {
			seg[k] = g.at(r1, j)
		}
		colComm.Send(o2, tag, seg)
		in := colComm.RecvFloat64s(o2, tag)
		for k, j := range cols {
			g.set(r1, j, in[k])
		}
	default:
		seg := make([]float64, len(cols))
		for k, j := range cols {
			seg[k] = g.at(r2, j)
		}
		colComm.Send(o1, tag, seg)
		in := colComm.RecvFloat64s(o1, tag)
		for k, j := range cols {
			g.set(r2, j, in[k])
		}
	}
}
