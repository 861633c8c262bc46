package pancho

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
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
// after Reset, and must match too. The host kernels may be rewritten
// freely as long as every ctx.Access/Compute call and the per-element
// floating-point order stay, and then all of these are bit-identical.
func TestFactorGolden(t *testing.T) {
	golden := []struct {
		grid   int
		panels uint64
		cycles int64
		ref    uint64
	}{
		{20, 0xe2b29d6b11b66471, 361_750, 0xde9560913ceb06f1},
		{32, 0x1e31b6f6a04bedb8, 1_307_553, 0xeb99ae2e8bd2a61b},
		{64, 0xc6226645e8ac229a, 8_800_982, 0xd48ad132fe1c259e},
		{96, 0, 0, 0x688f0e17ee4b1c27}, // reference only: the runs are slow under -race
	}
	for _, g := range golden {
		t.Run(fmt.Sprint(g.grid), func(t *testing.T) {
			prm := Params{Grid: g.grid}.normalize()
			h, err := prm.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			prep := h.(*Prep)
			ref, err := prep.reference()
			if err != nil {
				t.Fatal(err)
			}
			if got := hashF64(ref.f.Val); got != g.ref {
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

// BenchmarkPrepare is the analyze phase at the serving catalog's small
// preset: assemble, order, analyze, partition, the update DAG and each
// true entry's stored position. The reference factor is not part of it.
func BenchmarkPrepare(b *testing.B) {
	prm := Params{Grid: Program.Sizes["small"]}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := prm.Prepare(); err != nil {
			b.Fatal(err)
		}
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
