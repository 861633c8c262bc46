package pancho

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
	"github.com/coolrts/cool/internal/sparse"
)

// hashF64 is FNV-64a over the little-endian bits of vals.
func hashF64(vals ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, vs := range vals {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// factorP1 runs Distr+Aff at P=1 on one backend, runs times on one
// runtime with a Reset between, and returns the hash of every panel's
// values in panel order plus the cycles of the last run.
func factorP1(t *testing.T, backend cool.Backend, prm Params, prep *Prep, runs int) (uint64, int64) {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	var inst harness.Instance
	for run := range runs {
		if run > 0 {
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if inst, err = prm.Build(rt, int(DistrAff), prep); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(inst.Main); err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	ap := inst.(*app)
	panels := make([][]float64, len(ap.arrs))
	for i, arr := range ap.arrs {
		panels[i] = arr.Data
	}
	return hashF64(panels...), rt.Report().Cycles
}

// TestFactorGolden pins pancho's numbers: the stored panel values after a
// P=1 Distr+Aff run on both backends, the simulated cycles of that run,
// and the serial reference factor. The warm arm runs the job twice on one
// runtime, so the second run's panels are the first run's arrays, reused
// after Reset, and must match too. Besides the default panels (maxPanel
// and relax 0), rows at panel widths that do not divide by four, with
// little and much padding, check a kernel that blocks its columns on
// every remainder. The host kernels may be rewritten freely as long as
// every ctx.Access/Compute call and the per-element floating-point order
// stay, and then all of these are bit-identical.
func TestFactorGolden(t *testing.T) {
	golden := []struct {
		grid, maxPanel int
		relax          float64
		panels         uint64
		cycles         int64
		ref            uint64
	}{
		{20, 0, 0, 0xe2b29d6b11b66471, 361_750, 0xde9560913ceb06f1},
		{32, 0, 0, 0x1e31b6f6a04bedb8, 1_307_553, 0xeb99ae2e8bd2a61b},
		{64, 0, 0, 0xc6226645e8ac229a, 8_800_982, 0xd48ad132fe1c259e},
		{96, 0, 0, 0, 0, 0x688f0e17ee4b1c27}, // reference only: the runs are slow under -race
		{20, 1, 0.1, 0x832ef0e341972df, 945_870, 0xde9560913ceb06f1},
		{20, 1, 2, 0x832ef0e341972df, 945_870, 0xde9560913ceb06f1},
		{20, 3, 0.1, 0x71b66b172cb1c624, 387_935, 0xde9560913ceb06f1},
		{20, 3, 2, 0xf6caefe2592ab039, 318_856, 0xde9560913ceb06f1},
		{20, 5, 0.1, 0xf5f715b517dd8c1f, 300_887, 0xde9560913ceb06f1},
		{20, 5, 2, 0x266be7dd7d953183, 245_630, 0xde9560913ceb06f1},
		{20, 7, 0.1, 0xd9973820cbd8ca59, 301_346, 0xde9560913ceb06f1},
		{20, 7, 2, 0x8727676f89fb3d22, 271_171, 0xde9560913ceb06f1},
		{20, 16, 0.1, 0xe9d9e38a849e2e12, 276_420, 0xde9560913ceb06f1},
		{20, 16, 2, 0xc3be877cf0dc7131, 434_253, 0xde9560913ceb06f1},
		{33, 5, 0.8, 0x4d49f818e4bd5f19, 1_162_099, 0x274fed0c5452cdb4},
	}
	for _, g := range golden {
		name := fmt.Sprint(g.grid)
		if g.maxPanel != 0 {
			name = fmt.Sprintf("%d maxPanel=%d relax=%v", g.grid, g.maxPanel, g.relax)
		}
		t.Run(name, func(t *testing.T) {
			prm := Params{Grid: g.grid, MaxPanel: g.maxPanel, RelaxFill: g.relax}.normalize()
			h, err := prm.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			prep := h.(*Prep)
			ref, err := prep.reference()
			if err != nil {
				t.Fatal(err)
			}
			if got := hashF64(ref.want); got != g.ref {
				t.Errorf("reference factor hash %#x, want %#x", got, g.ref)
			}
			if g.panels == 0 {
				return
			}
			for _, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
				for runs := 1; runs <= 2; runs++ {
					got, cycles := factorP1(t, b, prm, prep, runs)
					if got != g.panels {
						t.Errorf("backend %v, run %d: panel values hash %#x, want %#x", b, runs, got, g.panels)
					}
					if b == cool.BackendSim && cycles != g.cycles {
						t.Errorf("run %d: simulated cycles %d, want %d", runs, cycles, g.cycles)
					}
				}
			}
		})
	}
}

// TestIndefinitePivotFails factors the indefinite [[1, 2], [2, 1]],
// whose second pivot is 1 − 2² = −3, once as one panel (the failure is
// inside complete) and once as two (applyUpdate feeds it, then complete
// finds it). On both backends the job fails with the task's panic,
// naming column 1; on the simulator at the cycle the charges issued
// before the check reach.
func TestIndefinitePivotFails(t *testing.T) {
	a := &sparse.Sym{N: 2, ColPtr: []int32{0, 2, 3}, RowIdx: []int32{0, 1, 1}, Val: []float64{1, 2, 1}}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		width int
		cycle int64
	}{{2, 187}, {1, 457}} {
		width := c.width
		prm := Params{Grid: Program.Sizes["small"]}.normalize() // only names the handle
		prep, err := newPrep(prm, a, sparse.BuildPanelSet(nil, sparse.Analyze(nil, a, nil), width, 0, nil), new(refCell))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(prep.ps.Panels); got != 3-width {
			t.Fatalf("width %d: %d panels, want %d", width, got, 3-width)
		}
		for _, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
			_, err := Program.Run(DistrAff.String(), prm, cool.Config{Processors: 1, Backend: b}, nil, prep)
			var tp *cool.TaskPanicError
			if !errors.As(err, &tp) {
				t.Fatalf("width %d, backend %v: error %v, want a task panic", width, b, err)
			}
			if msg := fmt.Sprint(tp.Value); !strings.Contains(msg, "at column 1 ") {
				t.Errorf("width %d, backend %v: panic %q does not name column 1", width, b, msg)
			}
			if b == cool.BackendSim && tp.Time != c.cycle {
				t.Errorf("width %d: panic at cycle %d, want %d", width, tp.Time, c.cycle)
			}
		}
	}
}

// BenchmarkPrepare is the analyze phase at the serving catalog's small
// preset: assemble, order, analyze, partition, the update DAG and each
// true entry's stored position. The reference factor is not part of it.
// fresh drops every Prep, as a caller that keeps its handles does;
// recycled releases each one, so the next Prepare refills it.
func BenchmarkPrepare(b *testing.B) {
	prm := Params{Grid: Program.Sizes["small"]}
	for _, recycle := range []bool{false, true} {
		name := "fresh"
		if recycle {
			name = "recycled"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prep, err := prm.Prepare()
				if err != nil {
					b.Fatal(err)
				}
				if recycle {
					prep.(*Prep).Release()
				}
			}
		})
	}
}

// BenchmarkRunPrepared is one resident-space factorization at the small
// preset on a warm native P=1 runtime, Reset between runs: build, run
// and verify against the prepared reference.
func BenchmarkRunPrepared(b *testing.B) {
	prm := Params{Grid: Program.Sizes["small"]}
	prep, err := prm.Prepare()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	variant := Variants[Program.Served].Name
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Reset(); err != nil {
			b.Fatal(err)
		}
		if _, err := Program.Run(variant, prm, cool.Config{}, rt, prep); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFactorize is the factorization alone: one Distr+Aff run at
// the small preset on a warm native P=1 runtime. Build, Reset and the
// verifying Finish stay outside the timer.
func BenchmarkFactorize(b *testing.B) {
	prm := Params{Grid: Program.Sizes["small"]}.normalize()
	prep := prepared(b, prm)
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := rt.Reset(); err != nil {
			b.Fatal(err)
		}
		inst, err := prm.Build(rt, int(DistrAff), prep)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := rt.Run(inst.Main); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := inst.Finish(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFinish is one job's verification at the small preset on a
// resident Prep whose reference is built: the check read in place.
func BenchmarkFinish(b *testing.B) {
	ap := factored(b, cool.BackendNative, 1, prepared(b, Params{Grid: Program.Sizes["small"]}))
	if _, err := ap.Finish(); err != nil { // fills the reference cell
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ap.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFinishFailsOnNaN plants a NaN in the first panel's diagonal entry
// of a correct factor: a NaN compares false with everything, so gates on
// residual > tol and maxdiff > tol would both pass it.
func TestFinishFailsOnNaN(t *testing.T) {
	prm := Params{Grid: 20}.normalize()
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := prm.Build(rt, int(DistrAff), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(inst.Main); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Finish(); err != nil {
		t.Fatalf("clean factor: %v", err)
	}
	inst.(*app).arrs[0].Data[0] = math.NaN()
	if ev, err := inst.Finish(); err == nil {
		t.Fatalf("a NaN factor passed: %s", ev.Verify(false))
	}
}
