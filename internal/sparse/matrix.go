// Package sparse is the sparse-matrix substrate for the Cholesky case
// studies: symmetric matrices in compressed-column form, workload
// generators (grid Laplacians, random SPD matrices), elimination trees,
// symbolic factorization, supernodal panel partitioning, and a serial
// numeric Cholesky used as the correctness reference.
package sparse

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sym is a symmetric positive definite matrix stored as its lower
// triangle (diagonal included) in compressed sparse column form with
// sorted row indices.
type Sym struct {
	N      int
	ColPtr []int32 // length N+1
	RowIdx []int32 // row indices, sorted within each column, first is the diagonal
	Val    []float64
}

// NNZ returns the number of stored entries (lower triangle).
func (a *Sym) NNZ() int { return len(a.RowIdx) }

// Col returns the row indices and values of column j.
func (a *Sym) Col(j int) ([]int32, []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[lo:hi], a.Val[lo:hi]
}

// Check validates the invariants of the representation.
func (a *Sym) Check() error {
	if len(a.ColPtr) != a.N+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(a.ColPtr), a.N+1)
	}
	if int(a.ColPtr[a.N]) != len(a.RowIdx) || len(a.RowIdx) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent nnz")
	}
	for j := 0; j < a.N; j++ {
		rows, _ := a.Col(j)
		if len(rows) == 0 || int(rows[0]) != j {
			return fmt.Errorf("sparse: column %d missing diagonal", j)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				return fmt.Errorf("sparse: column %d rows not strictly increasing", j)
			}
			if int(rows[i]) >= a.N {
				return fmt.Errorf("sparse: column %d row out of range", j)
			}
		}
	}
	return nil
}

// GridLaplacian fills dst (a new Sym when nil) with the 5-point
// Laplacian of a k×k grid with Dirichlet boundary (n = k², 4 on the
// diagonal, -1 couplings), a canonical SPD matrix whose factor has the
// supernodal panel structure the paper's Cholesky codes exploit, and
// returns it. dst's arrays are reused when they are large enough.
func GridLaplacian(dst *Sym, k int) *Sym {
	if dst == nil {
		dst = new(Sym)
	}
	n := k * k
	nnz := n + 2*k*(k-1) // the diagonal plus each grid edge once
	a := dst
	a.N = n
	a.ColPtr = grow(a.ColPtr, n+1)
	a.RowIdx = grow(a.RowIdx, nnz)[:0]
	a.Val = grow(a.Val, nnz)[:0]
	a.ColPtr[0] = 0
	idx := func(x, y int) int32 { return int32(x*k + y) }
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			j := idx(x, y)
			a.RowIdx = append(a.RowIdx, j)
			a.Val = append(a.Val, 4)
			// Lower triangle: neighbours with a larger index.
			if y+1 < k {
				a.RowIdx = append(a.RowIdx, idx(x, y+1))
				a.Val = append(a.Val, -1)
			}
			if x+1 < k {
				a.RowIdx = append(a.RowIdx, idx(x+1, y))
				a.Val = append(a.Val, -1)
			}
			a.ColPtr[j+1] = int32(len(a.RowIdx))
		}
	}
	return a
}

// grow returns s with length n, reusing its array when it holds n; the
// contents are not cleared. The result is never nil, so a refilled
// structure compares equal to a new one even where it is empty.
func grow[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// RandomSPD returns a random symmetric matrix with roughly extra
// off-diagonal entries per column, made positive definite by diagonal
// dominance. Deterministic for a given seed.
func RandomSPD(n, extra int, seed int64) *Sym {
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int32, n)
	for j := 0; j < n; j++ {
		for e := 0; e < extra; e++ {
			i := j + 1 + rng.Intn(n) // biased but fine as a workload
			if i < n {
				cols[j] = append(cols[j], int32(i))
			}
		}
	}
	a := &Sym{N: n, ColPtr: make([]int32, n+1)}
	for j := 0; j < n; j++ {
		set := map[int32]bool{}
		var rows []int32
		for _, i := range cols[j] {
			if !set[i] {
				set[i] = true
				rows = append(rows, i)
			}
		}
		sort.Slice(rows, func(x, y int) bool { return rows[x] < rows[y] })
		a.RowIdx = append(a.RowIdx, int32(j))
		a.Val = append(a.Val, float64(2*(len(rows)+n))) // strong diagonal
		for _, i := range rows {
			a.RowIdx = append(a.RowIdx, i)
			a.Val = append(a.Val, -1)
		}
		a.ColPtr[j+1] = int32(len(a.RowIdx))
	}
	return a
}

// MulVec computes y = A x using the symmetric lower-triangle storage.
func (a *Sym) MulVec(x []float64) []float64 {
	y := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		rows, vals := a.Col(j)
		for p, i := range rows {
			y[i] += vals[p] * x[j]
			if int(i) != j {
				y[j] += vals[p] * x[i]
			}
		}
	}
	return y
}
