package pancho

import (
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
	"github.com/coolrts/cool/internal/sparse"
)

type evidence = Result // embedded under its own name beside harness.Result

// result is what the assertions read: the harness's uniform result plus
// the app's evidence.
type result struct {
	harness.Result
	evidence
	Tasks int64
}

// runCfg goes through the one runner, as the registry does.
func runCfg(cfg cool.Config, variant string, prm Params) (result, error) {
	r, err := Program.Run(variant, prm, cfg, nil, nil)
	if err != nil {
		return result{}, err
	}
	return result{r, r.Evidence.(Result), r.Report.Total.TasksRun}, nil
}

func run(procs int, v Variant, prm Params) (result, error) {
	return runCfg(cool.Config{Processors: procs}, v.String(), prm)
}

func runSerial(prm Params) (result, error) { return runCfg(cool.Config{}, harness.Serial, prm) }

func small() Params { return Params{Grid: 12, MaxPanel: 4} }

func TestSerialFactors(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles charged")
	}
	if res.Residual > 1e-10 {
		t.Fatalf("residual %g", res.Residual)
	}
	if res.MaxDiff != 0 {
		t.Fatalf("serial run should match reference exactly, diff %g", res.MaxDiff)
	}
}

func TestAllVariantsCorrect(t *testing.T) {
	for i := range Variants {
		v := Variant(i)
		for _, procs := range []int{1, 4, 8} {
			res, err := run(procs, v, small())
			if err != nil {
				t.Fatalf("%v procs=%d: %v", v, procs, err)
			}
			if res.Tasks < int64(res.Panels) {
				t.Fatalf("%v procs=%d: only %d tasks for %d panels", v, procs, res.Tasks, res.Panels)
			}
		}
	}
}

func TestParallelBeatsSerialElapsed(t *testing.T) {
	// Needs a workload big enough to amortize task overheads.
	p := Params{Grid: 64, MaxPanel: 16, RelaxFill: 0.8}
	ser, err := runSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8, DistrAff, p)
	if err != nil {
		t.Fatal(err)
	}
	if float64(par.Cycles) > 0.5*float64(ser.Cycles) {
		t.Fatalf("no speedup: serial %d, parallel(8) %d", ser.Cycles, par.Cycles)
	}
}

func TestAffinityImprovesOnBase(t *testing.T) {
	p := Params{Grid: 16, MaxPanel: 8}
	base, err := run(8, Base, p)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := run(8, DistrAff, p)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: affinity scheduling plus distribution beats
	// locality-oblivious scheduling.
	if float64(aff.Cycles) > float64(base.Cycles)*1.05 {
		t.Fatalf("affinity (%d cycles) not better than base (%d cycles)", aff.Cycles, base.Cycles)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := run(4, DistrAff, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4, DistrAff, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Report.Total != b.Report.Total {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestPaddingStaysZero(t *testing.T) {
	ok, err := PaddingZero(Params{Grid: 16, MaxPanel: 10, RelaxFill: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("amalgamation padding accumulated nonzero values")
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		Base:            "Base",
		Distr:           "Distr",
		DistrAff:        "Distr+Aff",
		DistrAffCluster: "Distr+Aff+ClusterStealing",
	}
	for v, want := range names {
		if v.String() != want {
			t.Fatalf("%d.String() = %q", v, v.String())
		}
	}
}

// TestPanelCompletedOnce pins the seeding order of Main on a
// panel set built to expose it: column 0 couples only to the last
// column, every column between is an isolated leaf, one column per
// panel. While main is still spawning the leaves' complete tasks,
// panel 0 completes and its single update zeroes the last panel's
// countdown — a seeding loop that reads the live countdown then
// completes that panel a second time (deterministically, on the
// simulator) and the factor fails verification.
func TestPanelCompletedOnce(t *testing.T) {
	prep := isolatedLeaves(t)
	res, err := Program.Run(DistrAff.String(), prep.prm, cool.Config{Processors: 4}, nil, prep)
	if err != nil {
		t.Fatal(err)
	}
	// main + one complete per panel + the one update.
	if got, want := res.Report.Total.TasksRun, int64(len(prep.ps.Panels)+2); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
}

// newPrep hand-builds a handle: the analyze phase of matrix a
// partitioned as ps, under prm's name; ref is the reference cell of a's
// matrix.
func newPrep(prm Params, a *sparse.Sym, ps *sparse.PanelSet, ref *refCell) (*Prep, error) {
	prep := &Prep{prm: prm, a: a, ps: ps, ref: ref}
	if err := prep.index(); err != nil {
		return nil, err
	}
	return prep, nil
}

// isolatedLeaves hand-builds TestPanelCompletedOnce's handle: a
// 32-column matrix, one column per panel, under the name of the small
// preset (grid 32) whose matrix it is not. Like any hand-built handle it
// carries its own reference cell, not the memo's.
func isolatedLeaves(t *testing.T) *Prep {
	t.Helper()
	const n = 32
	a := &sparse.Sym{N: n, ColPtr: []int32{0, 2}, RowIdx: []int32{0, n - 1}, Val: []float64{4, -1}}
	for j := int32(1); j < n; j++ {
		a.RowIdx = append(a.RowIdx, j)
		a.Val = append(a.Val, 4)
		a.ColPtr = append(a.ColPtr, int32(len(a.RowIdx)))
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	prm := Params{Grid: Program.Sizes["small"]}.normalize() // only names the handle
	prep, err := newPrep(prm, a, sparse.BuildPanelSet(nil, sparse.Analyze(nil, a, nil), 1, 0, nil), new(refCell))
	if err != nil {
		t.Fatal(err)
	}
	return prep
}
