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

// Scratch is the temporary storage of the routines that take one:
// GridLaplacianND, Permute, EliminationTree, Analyze and
// BuildPanelSet. The zero value is ready. Kept across calls, it lets
// them allocate only where a size exceeds every earlier one; no result
// refers to it. A Scratch is used by one call at a time.
type Scratch struct {
	grid     Sym     // GridLaplacianND's natural-order matrix
	perm     []int32 // GridLaplacianND's ordering
	inv      []int32 // Permute's inverse permutation
	next     []int32 // Permute's and upper's fill cursors
	upPtr    []int32 // the strict upper triangle (upper)
	upRows   []int32
	ancestor []int32   // etree's path-compression links
	mark     []int32   // Analyze's row-subtree marks
	cursor   []int64   // Analyze's column counts, then fill cursors
	strict   []Panel   // BuildPanelSet's strict supernodes
	merged   []mergeOp // BuildPanelSet's merge stack
	arena    []int32   // BuildPanelSet's merged Below rows
}

// upper fills w.upPtr and w.upRows with the strict upper triangle of a
// in compressed-column form (the transpose of its strict lower
// triangle): column i holds the rows k < i with A(i,k) ≠ 0, in
// increasing order.
func upper(a *Sym, w *Scratch) {
	n := a.N
	w.upPtr = grow(w.upPtr, n+1)
	colPtr := w.upPtr
	clear(colPtr)
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows[1:] { // skip diagonal
			colPtr[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		colPtr[i+1] += colPtr[i]
	}
	w.upRows = grow(w.upRows, int(colPtr[n]))
	w.next = append(grow(w.next, n)[:0], colPtr[:n]...)
	rowIdx, next := w.upRows, w.next
	for j := 0; j < n; j++ {
		rows, _ := a.Col(j)
		for _, i := range rows[1:] {
			rowIdx[next[i]] = int32(j)
			next[i]++
		}
	}
}

// EliminationTree fills dst with the etree of a symmetric matrix given
// its lower-triangle CSC form (Liu's algorithm with path compression)
// and returns it; -1 marks a root. Its temporaries come from w (nil:
// its own).
func EliminationTree(dst []int32, a *Sym, w *Scratch) []int32 {
	if w == nil {
		w = new(Scratch)
	}
	upper(a, w)
	return etree(dst, w)
}

// etree runs Liu's algorithm over the upper triangle in w, whose
// columns it must process strictly in increasing order, into dst.
func etree(dst []int32, w *Scratch) []int32 {
	upPtr, upRows := w.upPtr, w.upRows
	n := len(upPtr) - 1
	parent := grow(dst, n)
	w.ancestor = grow(w.ancestor, n)
	ancestor := w.ancestor
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

// Analyze performs symbolic factorization by row subtrees into dst (a
// new Symb when nil) and returns it: row i of L holds i and every node
// on the etree paths from each k < i with A(i,k) ≠ 0 up to i. A first
// pass over the rows counts each column's entries and a second fills
// them into one backing array; rows are visited in increasing order, so
// every column comes out sorted. Its temporaries come from w (nil: its
// own).
func Analyze(dst *Symb, a *Sym, w *Scratch) *Symb {
	if dst == nil {
		dst = new(Symb)
	}
	if w == nil {
		w = new(Scratch)
	}
	n := a.N
	upper(a, w)
	s := dst
	s.N = n
	s.Parent = etree(s.Parent, w)
	s.LColPtr = grow(s.LColPtr, n+1)
	s.LColPtr[0] = 0
	upPtr, upRows, parent := w.upPtr, w.upRows, s.Parent
	w.mark = grow(w.mark, n)
	w.cursor = grow(w.cursor, n) // first pass: column counts; second: fill cursors
	mark, next := w.mark, w.cursor
	clear(next)
	var lrows []int32 // nil while counting
	for pass := 0; pass < 2; pass++ {
		for j := range mark {
			mark[j] = -1
		}
		for i := 0; i < n; i++ {
			mark[i] = int32(i)
			add(lrows, next, i, i)
			for _, k := range upRows[upPtr[i]:upPtr[i+1]] {
				for j := k; mark[j] != int32(i); j = parent[j] {
					mark[j] = int32(i)
					add(lrows, next, int(j), i)
				}
			}
		}
		if pass == 0 {
			for j := 0; j < n; j++ {
				s.LColPtr[j+1] = s.LColPtr[j] + next[j]
			}
			copy(next, s.LColPtr[:n])
			s.LRowIdx = grow(s.LRowIdx, int(s.LColPtr[n]))
			lrows = s.LRowIdx
		}
	}
	return s
}

// add records row i of column j: a count while lrows is nil, then a
// store at j's fill cursor.
func add(lrows []int32, next []int64, j, i int) {
	if lrows != nil {
		lrows[next[j]] = int32(i)
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

// Panels appends to dst[:0] the partition of L's columns into
// supernodal panels and returns it: column j+1 joins j's panel when
// parent(j) == j+1 and struct(L(:,j)) is struct(L(:,j+1)) plus the
// diagonal, capped at maxWidth columns.
func Panels(dst []Panel, s *Symb, maxWidth int) []Panel {
	if maxWidth <= 0 {
		maxWidth = 8
	}
	panels := grow(dst, 0)
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
