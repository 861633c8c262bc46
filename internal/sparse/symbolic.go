package sparse

import "sort"

// Symb is the result of symbolic factorization: the elimination tree and
// the structure of the Cholesky factor L (lower triangle, diagonal
// included, rows sorted within each column).
type Symb struct {
	N       int
	Parent  []int32 // elimination tree (-1 at roots)
	LColPtr []int64
	LRowIdx []int32
}

// LNNZ returns the number of nonzeros in L.
func (s *Symb) LNNZ() int { return len(s.LRowIdx) }

// LCol returns the row structure of column j of L.
func (s *Symb) LCol(j int) []int32 {
	return s.LRowIdx[s.LColPtr[j]:s.LColPtr[j+1]]
}

// upper returns the strict upper triangle of a in compressed-column
// form (the transpose of its strict lower triangle): column i holds the
// rows k < i with A(i,k) ≠ 0, in increasing order.
func upper(a *Sym) (colPtr, rowIdx []int32) {
	n := a.N
	colPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows[1:] { // skip diagonal
			colPtr[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		colPtr[i+1] += colPtr[i]
	}
	rowIdx = make([]int32, colPtr[n])
	next := append([]int32(nil), colPtr[:n]...)
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows[1:] {
			rowIdx[next[i]] = int32(j)
			next[i]++
		}
	}
	return colPtr, rowIdx
}

// EliminationTree computes the etree of a symmetric matrix given its
// lower-triangle CSC form (Liu's algorithm with path compression).
func EliminationTree(a *Sym) []int32 {
	return etree(upper(a))
}

// etree runs Liu's algorithm over the upper triangle's columns, which it
// must process strictly in increasing order.
func etree(upPtr, upRows []int32) []int32 {
	n := len(upPtr) - 1
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for j := range parent {
		parent[j] = -1
		ancestor[j] = -1
	}
	for col := 0; col < n; col++ {
		for _, k := range upRows[upPtr[col]:upPtr[col+1]] {
			i := k
			for i != -1 && int(i) < col {
				next := ancestor[i]
				ancestor[i] = int32(col)
				if next == -1 {
					parent[i] = int32(col)
				}
				i = next
			}
		}
	}
	return parent
}

// Analyze performs symbolic factorization by row subtrees: row i of L
// holds i and every node on the etree paths from each k < i with
// A(i,k) ≠ 0 up to i. A first pass over the rows counts each column's
// entries and a second fills them into one backing array; rows are
// visited in increasing order, so every column comes out sorted.
func Analyze(a *Sym) *Symb {
	n := a.N
	upPtr, upRows := upper(a)
	parent := etree(upPtr, upRows)
	s := &Symb{N: n, Parent: parent, LColPtr: make([]int64, n+1)}
	mark := make([]int32, n)
	next := make([]int64, n) // first pass: column counts; second: fill cursors
	for pass := 0; pass < 2; pass++ {
		for j := range mark {
			mark[j] = -1
		}
		for i := 0; i < n; i++ {
			mark[i] = int32(i)
			s.add(next, i, i)
			for _, k := range upRows[upPtr[i]:upPtr[i+1]] {
				for j := k; mark[j] != int32(i); j = parent[j] {
					mark[j] = int32(i)
					s.add(next, int(j), i)
				}
			}
		}
		if pass == 0 {
			for j := 0; j < n; j++ {
				s.LColPtr[j+1] = s.LColPtr[j] + next[j]
			}
			copy(next, s.LColPtr[:n])
			s.LRowIdx = make([]int32, s.LColPtr[n])
		}
	}
	return s
}

// add records row i of column j: a count until LRowIdx exists, then a
// store at j's fill cursor.
func (s *Symb) add(next []int64, j, i int) {
	if s.LRowIdx != nil {
		s.LRowIdx[next[j]] = int32(i)
	}
	next[j]++
}

// Panel is a group of consecutive columns of L with nearly identical
// structure (a supernode, possibly split to cap the width), the unit of
// work and data distribution in Panel Cholesky.
type Panel struct {
	ID         int
	Start, End int // columns [Start, End)
}

// Width returns the number of columns in the panel.
func (p Panel) Width() int { return p.End - p.Start }

// Panels partitions the columns of L into supernodal panels: column j+1
// joins j's panel when parent(j) == j+1 and struct(L(:,j)) is
// struct(L(:,j+1)) plus the diagonal, capped at maxWidth columns.
func Panels(s *Symb, maxWidth int) []Panel {
	if maxWidth <= 0 {
		maxWidth = 8
	}
	var panels []Panel
	j := 0
	for j < s.N {
		end := j + 1
		for end < s.N && end-j < maxWidth &&
			s.Parent[end-1] == int32(end) &&
			mergeable(s, end-1, end) {
			end++
		}
		panels = append(panels, Panel{ID: len(panels), Start: j, End: end})
		j = end
	}
	return panels
}

// mergeable reports whether column k+1's structure equals column k's
// minus k's diagonal entry.
func mergeable(s *Symb, k, k1 int) bool {
	a := s.LCol(k)
	b := s.LCol(k1)
	if len(a) != len(b)+1 {
		return false
	}
	for i := range b {
		if a[i+1] != b[i] {
			return false
		}
	}
	return true
}

// PanelOf returns a column→panel lookup table.
func PanelOf(panels []Panel, n int) []int32 {
	owner := make([]int32, n)
	for _, p := range panels {
		for j := p.Start; j < p.End; j++ {
			owner[j] = int32(p.ID)
		}
	}
	return owner
}

// PanelDeps computes, for each destination panel, the set of source
// panels that update it: source S updates destination D≠S when some
// column of S has a nonzero row landing in D's column range. The result
// is indexed by source panel (dsts[S] = sorted list of D) together with
// the per-destination update count.
func PanelDeps(s *Symb, panels []Panel) (dsts [][]int32, nupdates []int32) {
	owner := PanelOf(panels, s.N)
	dsts = make([][]int32, len(panels))
	nupdates = make([]int32, len(panels))
	seen := make([]int32, len(panels))
	for i := range seen {
		seen[i] = -1
	}
	for _, p := range panels {
		for j := p.Start; j < p.End; j++ {
			for _, r := range s.LCol(j)[1:] {
				d := owner[r]
				if int(d) == p.ID || seen[d] == int32(p.ID) {
					continue
				}
				seen[d] = int32(p.ID)
				dsts[p.ID] = append(dsts[p.ID], d)
				nupdates[d]++
			}
		}
	}
	for i := range dsts {
		sort.Slice(dsts[i], func(x, y int) bool { return dsts[i][x] < dsts[i][y] })
	}
	return dsts, nupdates
}
