package sparse

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestGridLaplacianShape(t *testing.T) {
	a := GridLaplacian(nil, 4)
	if a.N != 16 {
		t.Fatalf("N = %d", a.N)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	// 5-point stencil: nnz(lower) = n + horizontal + vertical couplings.
	want := 16 + 4*3 + 4*3
	if a.NNZ() != want {
		t.Fatalf("nnz = %d, want %d", a.NNZ(), want)
	}
}

func TestRandomSPDValid(t *testing.T) {
	f := func(seed int64) bool {
		a := RandomSPD(50, 3, seed)
		return a.Check() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEliminationTreeChain(t *testing.T) {
	// Tridiagonal matrix: etree is a chain.
	k := 6
	a := &Sym{N: k, ColPtr: make([]int32, k+1)}
	for j := 0; j < k; j++ {
		a.RowIdx = append(a.RowIdx, int32(j))
		a.Val = append(a.Val, 4)
		if j+1 < k {
			a.RowIdx = append(a.RowIdx, int32(j+1))
			a.Val = append(a.Val, -1)
		}
		a.ColPtr[j+1] = int32(len(a.RowIdx))
	}
	parent := EliminationTree(nil, a, nil)
	for j := 0; j < k-1; j++ {
		if parent[j] != int32(j+1) {
			t.Fatalf("parent[%d] = %d, want %d", j, parent[j], j+1)
		}
	}
	if parent[k-1] != -1 {
		t.Fatalf("root parent = %d", parent[k-1])
	}
}

func TestAnalyzeContainsA(t *testing.T) {
	// L's structure must contain A's lower structure, and every column's
	// head must be the diagonal.
	a := GridLaplacian(nil, 6)
	s := Analyze(nil, a, nil)
	for j := 0; j < a.N; j++ {
		lrows := s.LCol(j)
		if int(lrows[0]) != j {
			t.Fatalf("column %d head is %d", j, lrows[0])
		}
		set := map[int32]bool{}
		for _, r := range lrows {
			set[r] = true
		}
		arows, _ := a.Col(j)
		for _, r := range arows {
			if !set[r] {
				t.Fatalf("A entry (%d,%d) missing from L structure", r, j)
			}
		}
	}
	if s.LNNZ() < a.NNZ() {
		t.Fatal("factor has fewer nonzeros than A")
	}
}

func TestAnalyzeStructureClosure(t *testing.T) {
	// Fundamental property: if L[i][k] != 0 with i > k, then
	// struct(L(:,k)) below i is contained in struct(L(:,i)).
	a := GridLaplacian(nil, 5)
	s := Analyze(nil, a, nil)
	for k := 0; k < a.N; k++ {
		rows := s.LCol(k)
		for p := 1; p < len(rows); p++ {
			i := int(rows[p])
			set := map[int32]bool{}
			for _, r := range s.LCol(i) {
				set[r] = true
			}
			for _, r := range rows[p:] {
				if !set[r] {
					t.Fatalf("closure violated: L[%d][%d]!=0 but row %d of col %d not in col %d", i, k, r, k, i)
				}
			}
		}
	}
}

// TestAnalyzeMatchesDenseElimination checks L's structure and the
// elimination tree exactly against symbolic elimination on a dense
// boolean matrix: eliminating column k fills (i, j) for every pair of
// its rows i >= j > k, and parent(j) is column j's first row below j.
func TestAnalyzeMatchesDenseElimination(t *testing.T) {
	mats := []*Sym{GridLaplacian(nil, 6), GridLaplacianND(nil, 7, nil), GridLaplacianND(nil, 8, nil)}
	for seed := int64(1); seed <= 4; seed++ {
		mats = append(mats, RandomSPD(60, 3, seed))
	}
	for m, a := range mats {
		n := a.N
		dense := make([][]bool, n) // dense[j][i]: L(i, j) != 0
		for j := range dense {
			dense[j] = make([]bool, n)
			rows, _ := a.Col(j)
			for _, i := range rows {
				dense[j][i] = true
			}
		}
		for k := 0; k < n; k++ {
			for j := k + 1; j < n; j++ {
				if !dense[k][j] {
					continue
				}
				for i := j; i < n; i++ {
					if dense[k][i] {
						dense[j][i] = true
					}
				}
			}
		}
		s := Analyze(nil, a, nil)
		for j := 0; j < n; j++ {
			var want []int32
			for i := j; i < n; i++ {
				if dense[j][i] {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(s.LCol(j), want) {
				t.Fatalf("matrix %d column %d: structure %v, want %v", m, j, s.LCol(j), want)
			}
			parent := int32(-1)
			if len(want) > 1 {
				parent = want[1]
			}
			if s.Parent[j] != parent {
				t.Fatalf("matrix %d: parent[%d] = %d, want %d", m, j, s.Parent[j], parent)
			}
		}
	}
}

func TestCholeskyFactorsGrid(t *testing.T) {
	a := GridLaplacian(nil, 8)
	s := Analyze(nil, a, nil)
	f, err := Cholesky(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if r := ResidualNorm(a, f); r > 1e-10 {
		t.Fatalf("residual = %g", r)
	}
}

func TestCholeskyFactorsRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := RandomSPD(80, 4, seed)
		s := Analyze(nil, a, nil)
		f, err := Cholesky(a, s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r := ResidualNorm(a, f); r > 1e-9 {
			t.Fatalf("seed %d: residual = %g", seed, r)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := GridLaplacian(nil, 3)
	a.Val[0] = -4 // break positive definiteness
	s := Analyze(nil, a, nil)
	if _, err := Cholesky(a, s); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

func TestPanelsPartition(t *testing.T) {
	a := GridLaplacian(nil, 8)
	s := Analyze(nil, a, nil)
	panels := Panels(nil, s, 8)
	// Panels must tile [0, N) contiguously.
	next := 0
	for i, p := range panels {
		if p.ID != i || p.Start != next || p.End <= p.Start {
			t.Fatalf("bad panel %+v at %d (next=%d)", p, i, next)
		}
		if p.Width() > 8 {
			t.Fatalf("panel wider than cap: %+v", p)
		}
		next = p.End
	}
	if next != a.N {
		t.Fatalf("panels cover %d of %d columns", next, a.N)
	}
	// A grid Laplacian factor has proper supernodes: some panel should
	// have width > 1.
	multi := false
	for _, p := range panels {
		if p.Width() > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("no multi-column panels found; supernode detection broken")
	}
}

func TestPanelsStructureIdenticalWithin(t *testing.T) {
	a := GridLaplacian(nil, 7)
	s := Analyze(nil, a, nil)
	for _, p := range Panels(nil, s, 8) {
		for j := p.Start; j < p.End-1; j++ {
			if !mergeable(s, j, j+1) {
				t.Fatalf("panel %d columns %d,%d not mergeable", p.ID, j, j+1)
			}
		}
	}
}

func TestPanelDeps(t *testing.T) {
	a := GridLaplacian(nil, 6)
	s := Analyze(nil, a, nil)
	panels := Panels(nil, s, 4)
	dsts, nupd := PanelDeps(s, panels)
	// Count incoming edges two ways and cross-check.
	var total int32
	incoming := make([]int32, len(panels))
	for src, ds := range dsts {
		for _, d := range ds {
			if int(d) == src {
				t.Fatalf("self dependency on panel %d", src)
			}
			if d < int32(src) {
				t.Fatalf("update flows backwards: %d -> %d", src, d)
			}
			incoming[d]++
			total++
		}
	}
	for i := range incoming {
		if incoming[i] != nupd[i] {
			t.Fatalf("panel %d: incoming %d != nupdates %d", i, incoming[i], nupd[i])
		}
	}
	// First panel needs no updates; at least one panel does.
	if nupd[0] != 0 {
		t.Fatalf("panel 0 has %d updates", nupd[0])
	}
	if total == 0 {
		t.Fatal("no inter-panel dependencies at all")
	}
}

func TestSolveRecoversKnownSolution(t *testing.T) {
	a := GridLaplacianND(nil, 10, nil)
	s := Analyze(nil, a, nil)
	f, err := Cholesky(a, s)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.N)
	for i := range want {
		want[i] = float64(i%9) - 4
	}
	b := a.MulVec(want)
	got := f.Solve(b)
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Solve must not modify b.
	b2 := a.MulVec(want)
	for i := range b {
		if b[i] != b2[i] {
			t.Fatal("Solve modified its input")
		}
	}
}

func TestFactorValuesFinite(t *testing.T) {
	a := GridLaplacian(nil, 10)
	s := Analyze(nil, a, nil)
	f, err := Cholesky(a, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite factor value")
		}
	}
}

// TestNaNFactorMeasuresNaN: a NaN entry in a factor makes both
// certificates NaN rather than leaving the running maximum at the
// largest finite difference.
func TestNaNFactorMeasuresNaN(t *testing.T) {
	a := GridLaplacian(nil, 4)
	s := Analyze(nil, a, nil)
	ref, err := Cholesky(a, s)
	if err != nil {
		t.Fatal(err)
	}
	f := &Factor{S: s, Val: slices.Clone(ref.Val)}
	f.Val[1] = math.NaN()
	if d := MaxDiff(ref, f); !math.IsNaN(d) {
		t.Errorf("MaxDiff = %g, want NaN", d)
	}
	if r := ResidualNorm(a, f); !math.IsNaN(r) {
		t.Errorf("ResidualNorm = %g, want NaN", r)
	}
}
