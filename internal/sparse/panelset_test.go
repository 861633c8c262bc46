package sparse

import (
	"testing"
	"testing/quick"
)

func buildPS(t *testing.T, k, width int, relax float64) *PanelSet {
	t.Helper()
	a := GridLaplacianND(nil, k, nil)
	s := Analyze(nil, a, nil)
	return BuildPanelSet(nil, s, width, relax, nil)
}

func TestPanelSetTilesColumns(t *testing.T) {
	ps := buildPS(t, 16, 8, 0.5)
	next := 0
	for i, p := range ps.Panels {
		if p.ID != i || p.Start != next || p.End <= p.Start || p.Width() > 8 {
			t.Fatalf("bad panel %+v (next %d)", p, next)
		}
		next = p.End
	}
	if next != ps.S.N {
		t.Fatalf("panels cover %d of %d", next, ps.S.N)
	}
	for j := 0; j < ps.S.N; j++ {
		p := ps.Panels[ps.Owner[j]]
		if j < p.Start || j >= p.End {
			t.Fatalf("owner of %d wrong", j)
		}
	}
}

func TestPanelSetStoresTrueStructure(t *testing.T) {
	// Every true entry of L must have a stored slot.
	ps := buildPS(t, 12, 10, 0.8)
	for j := 0; j < ps.S.N; j++ {
		p := ps.Panels[ps.Owner[j]]
		for _, r := range ps.S.LCol(j) {
			if ps.RowPos(p, j, r) < 0 {
				t.Fatalf("true entry (%d,%d) missing", r, j)
			}
		}
	}
}

func TestPanelSetColPtrConsistent(t *testing.T) {
	ps := buildPS(t, 12, 10, 0.8)
	for _, p := range ps.Panels {
		for j := p.Start; j < p.End; j++ {
			want := (p.End - j) + len(ps.Below[p.ID])
			if ps.ColLen(j) != want {
				t.Fatalf("col %d stored length %d, want %d", j, ps.ColLen(j), want)
			}
		}
	}
	if ps.StoredNNZ() < int64(ps.S.LNNZ()) {
		t.Fatal("stored layout smaller than true factor")
	}
}

func TestAmalgamationReducesPanelCount(t *testing.T) {
	a := GridLaplacianND(nil, 24, nil)
	s := Analyze(nil, a, nil)
	strict := len(Panels(nil, s, 12))
	relaxed := len(BuildPanelSet(nil, s, 12, 0.8, nil).Panels)
	if relaxed >= strict {
		t.Fatalf("amalgamation did not reduce panels: %d vs %d", relaxed, strict)
	}
}

func TestRelaxZeroMatchesStrictSizes(t *testing.T) {
	// With no padding budget, only zero-cost merges happen: stored size
	// must equal the sum of strict supernode sizes.
	a := GridLaplacianND(nil, 16, nil)
	s := Analyze(nil, a, nil)
	ps := BuildPanelSet(nil, s, 8, 0, nil)
	var strictSize int64
	for _, p := range Panels(nil, s, 8) {
		w := int64(p.Width())
		below := int64(len(s.LCol(p.Start))) - w
		strictSize += w*(w+1)/2 + w*below
	}
	if ps.StoredNNZ() != strictSize {
		t.Fatalf("relax=0 stored %d, strict %d", ps.StoredNNZ(), strictSize)
	}
}

func TestDepsMatchBelowOwners(t *testing.T) {
	ps := buildPS(t, 16, 8, 0.5)
	deps := ps.Deps(nil)
	dsts, nupd := deps.Dsts, deps.NUpd
	var incoming []int32 = make([]int32, len(ps.Panels))
	for src, ds := range dsts {
		prev := int32(-1)
		for _, d := range ds {
			if d <= prev {
				t.Fatalf("dsts[%d] not strictly increasing: %v", src, ds)
			}
			prev = d
			if int(d) <= src {
				t.Fatalf("dependency flows backwards %d->%d", src, d)
			}
			incoming[d]++
		}
	}
	for i := range incoming {
		if incoming[i] != nupd[i] {
			t.Fatalf("panel %d nupd mismatch", i)
		}
	}
}

func TestRowPosProperties(t *testing.T) {
	ps := buildPS(t, 10, 8, 0.8)
	f := func(colRaw, rowRaw uint16) bool {
		j := int(colRaw) % ps.S.N
		p := ps.Panels[ps.Owner[j]]
		// In-range rows resolve to dense positions.
		r := int32(j + int(rowRaw)%(p.End-j))
		if ps.RowPos(p, j, r) != int(r)-j {
			return false
		}
		// Every Below row resolves beyond the dense part.
		below := ps.Below[p.ID]
		if len(below) > 0 {
			b := below[int(rowRaw)%len(below)]
			want := p.End - j + int(rowRaw)%len(below)
			if ps.RowPos(p, j, b) != want {
				return false
			}
		}
		// Rows above the column never resolve.
		if j > 0 && ps.RowPos(p, j, int32(j-1)) != -1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
