package sparse

// Orderings. The paper's Cholesky codes (Rothberg & Gupta) factor
// matrices whose elimination trees are bushy; a nested dissection
// ordering of the grid Laplacian reproduces that shape (the natural
// ordering yields an almost sequential chain with no tree parallelism).

// NestedDissectionGrid returns a permutation of the k×k grid in nested
// dissection order: perm[new] = old vertex index. Each recursion splits
// the region with a one-cell separator ordered after both halves.
func NestedDissectionGrid(k int) []int32 {
	perm := make([]int32, 0, k*k)
	var rec func(x0, x1, y0, y1 int)
	rec = func(x0, x1, y0, y1 int) {
		w, h := x1-x0, y1-y0
		if w <= 0 || h <= 0 {
			return
		}
		if w <= 2 && h <= 2 {
			for x := x0; x < x1; x++ {
				for y := y0; y < y1; y++ {
					perm = append(perm, int32(x*k+y))
				}
			}
			return
		}
		if w >= h {
			mid := (x0 + x1) / 2
			rec(x0, mid, y0, y1)
			rec(mid+1, x1, y0, y1)
			for y := y0; y < y1; y++ { // separator column, ordered last
				perm = append(perm, int32(mid*k+y))
			}
			return
		}
		mid := (y0 + y1) / 2
		rec(x0, x1, y0, mid)
		rec(x0, x1, mid+1, y1)
		for x := x0; x < x1; x++ {
			perm = append(perm, int32(x*k+mid))
		}
	}
	rec(0, k, 0, k)
	return perm
}

// Permute returns P A Pᵀ for perm[new] = old, keeping the
// lower-triangular sorted CSC invariants.
func Permute(a *Sym, perm []int32) *Sym {
	n := a.N
	inv := make([]int32, n) // inv[old] = new
	for newI, old := range perm {
		inv[old] = int32(newI)
	}
	// lower maps A's entry (i, j) to its lower-triangle position in PAPᵀ.
	lower := func(i, j int32) (row, col int32) {
		ni, nj := inv[i], inv[j]
		if ni < nj {
			return nj, ni
		}
		return ni, nj
	}
	// Count each new column's entries, then fill one backing array.
	out := &Sym{N: n, ColPtr: make([]int32, n+1), RowIdx: make([]int32, a.NNZ()), Val: make([]float64, a.NNZ())}
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows {
			_, nj := lower(i, int32(j))
			out.ColPtr[nj+1]++
		}
	}
	for j := 0; j < n; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	next := append([]int32(nil), out.ColPtr[:n]...)
	for j := 0; j < n; j++ {
		rows, vals := a.Col(j)
		for p, i := range rows {
			ni, nj := lower(i, int32(j))
			out.RowIdx[next[nj]] = ni
			out.Val[next[nj]] = vals[p]
			next[nj]++
		}
	}
	// Insertion sort each column, rows and values together; columns are
	// short and their rows distinct.
	for j := 0; j < n; j++ {
		rows, vals := out.Col(j)
		for i := 1; i < len(rows); i++ {
			for q := i; q > 0 && rows[q] < rows[q-1]; q-- {
				rows[q], rows[q-1] = rows[q-1], rows[q]
				vals[q], vals[q-1] = vals[q-1], vals[q]
			}
		}
	}
	return out
}

// GridLaplacianND returns the k×k grid Laplacian in nested dissection
// order — the standard Panel/Block Cholesky workload.
func GridLaplacianND(k int) *Sym {
	return Permute(GridLaplacian(k), NestedDissectionGrid(k))
}
