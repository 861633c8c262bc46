package sparse

import "sort"

// PanelSet is an amalgamated supernodal partition of the factor: each
// panel stores its columns as a dense trapezoid — column j holds rows
// {j .. End-1} followed by the panel's shared Below rows. Small panels
// are merged (relaxed amalgamation) by padding with explicit zeros;
// padded entries provably remain zero throughout the factorization, so
// the numeric result is unchanged while tasks become coarse enough to
// amortize scheduling costs (exactly what supernodal codes do).
type PanelSet struct {
	S      *Symb
	Panels []Panel
	Below  [][]int32 // per panel: stored rows >= End, sorted
	Owner  []int32   // column -> panel id
	ColPtr []int64   // stored-layout offset of each column, length N+1
}

// BuildPanelSet computes strict supernodes and then greedily merges
// adjacent panels while the zero padding introduced stays below
// relaxFill of the merged panel's entries (and the width cap holds).
func BuildPanelSet(s *Symb, maxWidth int, relaxFill float64) *PanelSet {
	if maxWidth <= 0 {
		maxWidth = 16
	}
	strict := Panels(s, maxWidth)

	type work struct {
		start, end int
		below      []int32
		size       int64
		at         int // offset of below in arena, or -1 for a view of L
	}
	// A strict panel's Below rows are a view of its first column in L; a
	// merged panel's live in arena, which is a stack like merged itself:
	// a rejected merge is rolled back, an accepted one moves its rows down
	// over the two panels it consumed. The survivors are copied into one
	// backing array at the end.
	belowOf := func(p Panel) []int32 {
		rows := s.LCol(p.Start)
		i := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= p.End })
		return rows[i:len(rows):len(rows)]
	}
	sizeOf := func(start, end int, below []int32) int64 {
		w := int64(end - start)
		return w*(w+1)/2 + w*int64(len(below))
	}

	var merged []work
	var arena []int32
	for _, p := range strict {
		b := belowOf(p)
		cur := work{p.Start, p.End, b, sizeOf(p.Start, p.End, b), -1}
		for len(merged) > 0 {
			prev := merged[len(merged)-1]
			if cur.end-prev.start > maxWidth {
				break
			}
			// Structure of the merged panel: previous panel's below rows
			// outside the absorbed column range, unioned with ours.
			at := len(arena)
			arena = unionBeyond(arena, prev.below, cur.below, cur.end)
			truth := prev.size + cur.size
			ns := sizeOf(prev.start, cur.end, arena[at:])
			if float64(ns-truth) > relaxFill*float64(truth) {
				arena = arena[:at]
				break
			}
			base := at
			if cur.at >= 0 {
				base = cur.at
			}
			if prev.at >= 0 {
				base = prev.at
			}
			arena = arena[:base+copy(arena[base:], arena[at:])]
			cur = work{prev.start, cur.end, arena[base:len(arena):len(arena)], ns, base}
			merged = merged[:len(merged)-1]
		}
		merged = append(merged, cur)
	}

	ps := &PanelSet{
		S:      s,
		Panels: make([]Panel, len(merged)),
		Below:  make([][]int32, len(merged)),
		Owner:  make([]int32, s.N),
		ColPtr: make([]int64, s.N+1),
	}
	total := 0
	for _, w := range merged {
		total += len(w.below)
	}
	flat := make([]int32, 0, total)
	for id, w := range merged {
		ps.Panels[id] = Panel{ID: id, Start: w.start, End: w.end}
		at := len(flat)
		flat = append(flat, w.below...)
		ps.Below[id] = flat[at:len(flat):len(flat)]
		for j := w.start; j < w.end; j++ {
			ps.Owner[j] = int32(id)
			ps.ColPtr[j+1] = ps.ColPtr[j] + int64(w.end-j+len(w.below))
		}
	}
	return ps
}

// unionBeyond appends to dst the sorted union of a's entries >= cut with
// all of b.
func unionBeyond(dst, a, b []int32, cut int) []int32 {
	i := sort.Search(len(a), func(i int) bool { return int(a[i]) >= cut })
	a = a[i:]
	x, y := 0, 0
	for x < len(a) || y < len(b) {
		switch {
		case y == len(b) || (x < len(a) && a[x] < b[y]):
			dst = append(dst, a[x])
			x++
		case x == len(a) || b[y] < a[x]:
			dst = append(dst, b[y])
			y++
		default:
			dst = append(dst, a[x])
			x++
			y++
		}
	}
	return dst
}

// StoredNNZ returns the total stored entries (true entries plus padding).
func (ps *PanelSet) StoredNNZ() int64 { return ps.ColPtr[ps.S.N] }

// ColLen returns the stored length of column j.
func (ps *PanelSet) ColLen(j int) int { return int(ps.ColPtr[j+1] - ps.ColPtr[j]) }

// PanelOff returns the stored-layout offset of panel p's first entry.
func (ps *PanelSet) PanelOff(p Panel) int64 { return ps.ColPtr[p.Start] }

// RowPos returns the position of row r within stored column j of panel p,
// or -1 if the row is not stored (possible only across panels).
func (ps *PanelSet) RowPos(p Panel, j int, r int32) int {
	if int(r) < p.End {
		if int(r) < j {
			return -1
		}
		return int(r) - j
	}
	below := ps.Below[p.ID]
	i := sort.Search(len(below), func(i int) bool { return below[i] >= r })
	if i == len(below) || below[i] != r {
		return -1
	}
	return p.End - j + i
}

// Deps returns, per source panel, the sorted destination panels its Below
// rows land in, plus the per-destination incoming-update count. These are
// the stored-structure dependencies the parallel factorization follows.
func (ps *PanelSet) Deps() (dsts [][]int32, nupd []int32) {
	n := len(ps.Panels)
	dsts = make([][]int32, n)
	nupd = make([]int32, n)
	// One backing array: panel id's destinations are flat[at[id]:at[id+1]].
	var flat []int32
	at := make([]int, n+1)
	for id := range ps.Panels {
		last := int32(-1)
		for _, r := range ps.Below[id] {
			d := ps.Owner[r]
			if d != last {
				flat = append(flat, d)
				nupd[d]++
				last = d
			}
		}
		at[id+1] = len(flat)
	}
	for id := range dsts {
		dsts[id] = flat[at[id]:at[id+1]:at[id+1]]
	}
	return dsts, nupd
}
