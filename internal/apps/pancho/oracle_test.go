package pancho

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/sparse"
)

// resetRefMemo empties the reference memo.
func resetRefMemo() { refMemo.Reset() }

// countRefBuilds counts the reference factorizations until the test
// ends.
func countRefBuilds(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := factorRef
	factorRef = func(a *sparse.Sym, s *sparse.Symb) (*sparse.Factor, error) {
		n.Add(1)
		return orig(a, s)
	}
	t.Cleanup(func() { factorRef = orig })
	return &n
}

// prepared runs the analyze phase of prm.
func prepared(t testing.TB, prm Params) *Prep {
	t.Helper()
	h, err := prm.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	return h.(*Prep)
}

// factored runs Distr+Aff on prep at P processors of backend and returns
// the run's state, not yet verified.
func factored(t testing.TB, backend cool.Backend, procs int, prep *Prep) *app {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prep.prm.Build(rt, int(DistrAff), prep)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(inst.Main); err != nil {
		t.Fatal(err)
	}
	return inst.(*app)
}

// verifies runs prep on the native backend at P=1 and checks the factor.
func verifies(t *testing.T, prep *Prep) {
	t.Helper()
	if _, err := factored(t, cool.BackendNative, 1, prep).Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReferencePerMatrix: the memo is per matrix, not per label. Preps
// of one grid share one cell and one reference factorization, and a
// hand-built handle under a preset's name keeps its own cell, so it and
// a real job of that preset both verify in either order.
func TestReferencePerMatrix(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		resetRefMemo()
		builds := countRefBuilds(t)
		prm := Params{Grid: 20}
		p1, p2 := prepared(t, prm), prepared(t, prm)
		if p1.ref != p2.ref {
			t.Fatal("two Prepares of one grid hold different reference cells")
		}
		verifies(t, p1)
		verifies(t, p2)
		if got := builds.Load(); got != 1 {
			t.Fatalf("%d reference factorizations for one grid, want 1", got)
		}
	})
	for _, handFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("handFirst=%v", handFirst), func(t *testing.T) {
			resetRefMemo()
			hand := isolatedLeaves(t)
			real := prepared(t, hand.prm)
			if hand.ref == real.ref {
				t.Fatal("the hand-built handle holds the memo's cell")
			}
			order := []*Prep{real, hand}
			if handFirst {
				order = []*Prep{hand, real}
			}
			for _, prep := range order {
				verifies(t, prep)
			}
		})
	}
}

// TestReferenceConcurrentFinish verifies one factor from 8 goroutines
// at once on a fresh cell: the reference is built once. Run it under
// -race.
func TestReferenceConcurrentFinish(t *testing.T) {
	resetRefMemo()
	builds := countRefBuilds(t)
	ap := factored(t, cool.BackendNative, 1, prepared(t, Params{Grid: 20}))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range cap(errs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := ap.Finish()
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d reference factorizations, want 1", got)
	}
}

// TestReferenceMemoEvictsOldest prepares one grid more than the memo
// holds: the first goes, the rest stay in order, and a Prep that still
// holds the evicted cell verifies.
func TestReferenceMemoEvictsOldest(t *testing.T) {
	resetRefMemo()
	grids := []int{4, 8, 12, 16, 20}
	var first *Prep
	for _, g := range grids {
		prep := prepared(t, Params{Grid: g})
		if first == nil {
			first = prep
		}
	}
	held := refMemo.Keys()
	if want := grids[1:]; !slices.Equal(held, want) {
		t.Fatalf("memo holds %v, want %v", held, want)
	}
	verifies(t, first)
	if again := prepared(t, first.prm); again.ref == first.ref {
		t.Fatal("an evicted grid's next Prepare got the evicted cell back")
	}
}

// extract copies the factor's true entries out of the panels by walking
// each column's stored rows: the copy-then-check oracle of
// TestFinishInPlaceMatchesExtracted.
func extract(t *testing.T, ap *app) *sparse.Factor {
	t.Helper()
	ps := ap.ps
	symb := ps.S
	f := &sparse.Factor{S: symb, Val: make([]float64, symb.LNNZ())}
	for j := 0; j < symb.N; j++ {
		pid := int(ps.Owner[j])
		p := ps.Panels[pid]
		off := ap.colOff(pid, j)
		base := symb.LColPtr[j]
		cur := 0
		for q, r := range symb.LCol(j) {
			pos := storedPos(ps, p, j, r, &cur)
			if pos < 0 {
				t.Fatalf("true entry (%d,%d) missing from stored structure", r, j)
			}
			f.Val[base+int64(q)] = ap.arrs[pid].Data[off+pos]
		}
	}
	return f
}

// TestFinishInPlaceMatchesExtracted checks Finish's evidence against
// sparse.ResidualNorm and sparse.MaxDiff on the extracted factor, bit
// for bit, over grids, panel widths and padding budgets on the
// simulator at P=1 and P=4. Perturbing one true entry by 1e-6 must then
// fail the check. A -race build stops at grid 12: the check is serial,
// and the larger grids' runs take minutes there.
func TestFinishInPlaceMatchesExtracted(t *testing.T) {
	maxGrid := 40
	if raceEnabled {
		maxGrid = 12
	}
	for grid := 4; grid <= maxGrid; grid++ {
		for _, maxPanel := range []int{1, 4, 12} {
			for _, relax := range []float64{0.1, 0.8, 2} {
				prep := prepared(t, Params{Grid: grid, MaxPanel: maxPanel, RelaxFill: relax})
				ref, err := prep.reference()
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 4} {
					name := fmt.Sprintf("grid=%d maxPanel=%d relax=%v P=%d", grid, maxPanel, relax, procs)
					ap := factored(t, cool.BackendSim, procs, prep)
					ev, err := ap.Finish()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res := ev.(Result)
					f := extract(t, ap)
					if want := sparse.ResidualNorm(prep.a, f); math.Float64bits(res.Residual) != math.Float64bits(want) {
						t.Errorf("%s: residual %v, extracted factor's %v", name, res.Residual, want)
					}
					if want := sparse.MaxDiff(&sparse.Factor{Val: ref.want}, f); math.Float64bits(res.MaxDiff) != math.Float64bits(want) {
						t.Errorf("%s: maxdiff %v, extracted factor's %v", name, res.MaxDiff, want)
					}
					// The last true entry of the middle column.
					j := ap.ps.S.N / 2
					ap.arrs[ap.ps.Owner[j]].Data[prep.lpos[ap.ps.S.LColPtr[j+1]-1]] += 1e-6
					if ev, err := ap.Finish(); err == nil {
						t.Errorf("%s: a factor off by 1e-6 passed: %s", name, ev.Verify(false))
					}
				}
			}
		}
	}
}
