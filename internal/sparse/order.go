package sparse

// Orderings. The paper's Cholesky codes (Rothberg & Gupta) factor
// matrices whose elimination trees are bushy; a nested dissection
// ordering of the grid Laplacian reproduces that shape (the natural
// ordering yields an almost sequential chain with no tree parallelism).

// NestedDissectionGrid appends to dst[:0] a permutation of the k×k
// grid in nested dissection order, perm[new] = old vertex index, and
// returns it. Each recursion splits the region with a one-cell
// separator ordered after both halves.
func NestedDissectionGrid(dst []int32, k int) []int32 {
	nd := ndOrder{k: k, perm: grow(dst, k*k)[:0]}
	nd.rec(0, k, 0, k)
	return nd.perm
}

// ndOrder is NestedDissectionGrid's recursion state.
type ndOrder struct {
	k    int
	perm []int32
}

// rec orders the region [x0, x1) × [y0, y1).
func (nd *ndOrder) rec(x0, x1, y0, y1 int) {
	k := nd.k
	w, h := x1-x0, y1-y0
	if w <= 0 || h <= 0 {
		return
	}
	if w <= 2 && h <= 2 {
		for x := x0; x < x1; x++ {
			for y := y0; y < y1; y++ {
				nd.perm = append(nd.perm, int32(x*k+y))
			}
		}
		return
	}
	if w >= h {
		mid := (x0 + x1) / 2
		nd.rec(x0, mid, y0, y1)
		nd.rec(mid+1, x1, y0, y1)
		for y := y0; y < y1; y++ { // separator column, ordered last
			nd.perm = append(nd.perm, int32(mid*k+y))
		}
		return
	}
	mid := (y0 + y1) / 2
	nd.rec(x0, x1, y0, mid)
	nd.rec(x0, x1, mid+1, y1)
	for x := x0; x < x1; x++ {
		nd.perm = append(nd.perm, int32(x*k+mid))
	}
}

// Permute fills dst (a new Sym when nil) with P A Pᵀ for perm[new] =
// old, keeping the lower-triangular sorted CSC invariants, and returns
// it. dst must not be a. Its temporaries come from w (nil: its own).
func Permute(dst, a *Sym, perm []int32, w *Scratch) *Sym {
	if dst == nil {
		dst = new(Sym)
	}
	if w == nil {
		w = new(Scratch)
	}
	n := a.N
	w.inv = grow(w.inv, n) // inv[old] = new
	inv := w.inv
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
	out := dst
	out.N = n
	out.ColPtr = grow(out.ColPtr, n+1)
	out.RowIdx = grow(out.RowIdx, a.NNZ())
	out.Val = grow(out.Val, a.NNZ())
	clear(out.ColPtr)
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
	w.next = append(grow(w.next, n)[:0], out.ColPtr[:n]...)
	next := w.next
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

// GridLaplacianND fills dst (a new Sym when nil) with the k×k grid
// Laplacian in nested dissection order — the standard Panel/Block
// Cholesky workload — and returns it. The natural-order matrix and the
// ordering are w's (nil: its own).
func GridLaplacianND(dst *Sym, k int, w *Scratch) *Sym {
	if w == nil {
		w = new(Scratch)
	}
	w.perm = NestedDissectionGrid(w.perm, k)
	return Permute(dst, GridLaplacian(&w.grid, k), w.perm, w)
}
