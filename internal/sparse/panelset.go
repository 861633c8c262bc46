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
	below  []int32   // the backing array of Below
}

// mergeOp is a panel on BuildPanelSet's merge stack.
type mergeOp struct {
	start, end int
	below      []int32
	size       int64
	at         int // offset of below in the arena, or -1 for a view of L
}

// BuildPanelSet computes strict supernodes of s and then greedily merges
// adjacent panels while the zero padding introduced stays below
// relaxFill of the merged panel's entries (and the width cap holds). It
// fills dst (a new PanelSet when nil), which then refers to s, and
// returns it; its temporaries come from w (nil: its own).
func BuildPanelSet(dst *PanelSet, s *Symb, maxWidth int, relaxFill float64, w *Scratch) *PanelSet {
	if dst == nil {
		dst = new(PanelSet)
	}
	if w == nil {
		w = new(Scratch)
	}
	if maxWidth <= 0 {
		maxWidth = 16
	}
	w.strict = Panels(w.strict, s, maxWidth)

	// A strict panel's Below rows are a view of its first column in L; a
	// merged panel's live in the arena, which is a stack like merged
	// itself: a rejected merge is rolled back, an accepted one moves its
	// rows down over the two panels it consumed. The survivors are copied
	// into one backing array at the end.
	belowOf := func(p Panel) []int32 {
		rows := s.LCol(p.Start)
		i := sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= p.End })
		return rows[i:len(rows):len(rows)]
	}
	sizeOf := func(start, end int, below []int32) int64 {
		width := int64(end - start)
		return width*(width+1)/2 + width*int64(len(below))
	}

	merged := grow(w.merged, 0)
	arena := grow(w.arena, 0)
	for _, p := range w.strict {
		b := belowOf(p)
		cur := mergeOp{p.Start, p.End, b, sizeOf(p.Start, p.End, b), -1}
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
			cur = mergeOp{prev.start, cur.end, arena[base:len(arena):len(arena)], ns, base}
			merged = merged[:len(merged)-1]
		}
		merged = append(merged, cur)
	}
	w.merged, w.arena = merged, arena

	ps := dst
	ps.S = s
	ps.Panels = grow(ps.Panels, len(merged))
	ps.Below = grow(ps.Below, len(merged))
	ps.Owner = grow(ps.Owner, s.N)
	ps.ColPtr = grow(ps.ColPtr, s.N+1)
	ps.ColPtr[0] = 0
	total := 0
	for _, m := range merged {
		total += len(m.below)
	}
	flat := grow(ps.below, total)[:0]
	for id, m := range merged {
		ps.Panels[id] = Panel{ID: id, Start: m.start, End: m.end}
		at := len(flat)
		flat = append(flat, m.below...)
		ps.Below[id] = flat[at:len(flat):len(flat)]
		for j := m.start; j < m.end; j++ {
			ps.Owner[j] = int32(id)
			ps.ColPtr[j+1] = ps.ColPtr[j] + int64(m.end-j+len(m.below))
		}
	}
	ps.below = flat
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

// Deps is the stored-structure dependency DAG the parallel
// factorization follows: Dsts[s] lists, sorted, the destination panels
// source panel s's Below rows land in, and NUpd[d] counts the updates
// panel d receives.
type Deps struct {
	Dsts [][]int32
	NUpd []int32
	flat []int32 // the backing array of Dsts
}

// Deps fills dst (a new Deps when nil) with the panel set's update DAG
// and returns it.
func (ps *PanelSet) Deps(dst *Deps) *Deps {
	if dst == nil {
		dst = new(Deps)
	}
	n := len(ps.Panels)
	dst.Dsts = grow(dst.Dsts, n)
	dst.NUpd = grow(dst.NUpd, n)
	clear(dst.NUpd)
	// One backing array, large enough for a destination per Below row, so
	// panel id's destinations can be cut from it as they are found.
	rows := 0
	for _, below := range ps.Below {
		rows += len(below)
	}
	flat := grow(dst.flat, rows)[:0]
	for id := range ps.Panels {
		at := len(flat)
		last := int32(-1)
		for _, r := range ps.Below[id] {
			d := ps.Owner[r]
			if d != last {
				flat = append(flat, d)
				dst.NUpd[d]++
				last = d
			}
		}
		dst.Dsts[id] = flat[at:len(flat):len(flat)]
	}
	dst.flat = flat
	return dst
}
