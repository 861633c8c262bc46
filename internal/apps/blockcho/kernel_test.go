package blockcho

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	cool "github.com/coolrts/cool"
)

// kernelApp builds a tiny 2×2-block app for kernel-level checks.
func kernelApp(t *testing.T) (*app, *cool.Runtime) {
	t.Helper()
	prm, err := Params{N: 8, B: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	return build(rt, prm, false), rt
}

func TestPotrfFactorsDiagonalBlock(t *testing.T) {
	ap, rt := kernelApp(t)
	b := ap.prm.B
	orig := make([]float64, b*b)
	copy(orig, ap.blks[ap.blockIdx(0, 0)].Data)
	err := rt.Run(func(ctx *cool.Ctx) { ap.potrf(ctx, 0) })
	if err != nil {
		t.Fatal(err)
	}
	l := ap.blks[ap.blockIdx(0, 0)].Data
	// L Lᵀ must reproduce the original block.
	for r := 0; r < b; r++ {
		for c := 0; c <= r; c++ {
			var s float64
			for k := 0; k <= c; k++ {
				s += l[r*b+k] * l[c*b+k]
			}
			if d := math.Abs(s - orig[r*b+c]); d > 1e-12 {
				t.Fatalf("LLᵀ[%d][%d] = %v, want %v", r, c, s, orig[r*b+c])
			}
		}
	}
	// Strict upper triangle zeroed.
	for r := 0; r < b; r++ {
		for c := r + 1; c < b; c++ {
			if l[r*b+c] != 0 {
				t.Fatalf("upper entry (%d,%d) = %v", r, c, l[r*b+c])
			}
		}
	}
}

func TestTrsmSolvesAgainstDiagonal(t *testing.T) {
	ap, rt := kernelApp(t)
	b := ap.prm.B
	orig := make([]float64, b*b)
	copy(orig, ap.blks[ap.blockIdx(1, 0)].Data)
	err := rt.Run(func(ctx *cool.Ctx) {
		ap.potrf(ctx, 0)
		ap.trsm(ctx, 1, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	l := ap.blks[ap.blockIdx(0, 0)].Data
	x := ap.blks[ap.blockIdx(1, 0)].Data
	// X · Lᵀ must reproduce the original off-diagonal block.
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			var s float64
			for k := 0; k <= c; k++ {
				s += x[r*b+k] * l[c*b+k]
			}
			if d := math.Abs(s - orig[r*b+c]); d > 1e-12 {
				t.Fatalf("XLᵀ[%d][%d] = %v, want %v", r, c, s, orig[r*b+c])
			}
		}
	}
}

func TestGemmSubtractsOuterProduct(t *testing.T) {
	ap, rt := kernelApp(t)
	b := ap.prm.B
	s1 := ap.blks[ap.blockIdx(1, 0)].Data
	dstID := ap.blockIdx(1, 1)
	before := make([]float64, b*b)
	copy(before, ap.blks[dstID].Data)
	err := rt.Run(func(ctx *cool.Ctx) { ap.gemm(ctx, 1, 1, 0) })
	if err != nil {
		t.Fatal(err)
	}
	after := ap.blks[dstID].Data
	for r := 0; r < b; r++ {
		for c := 0; c <= r; c++ { // diagonal block: lower triangle only
			var s float64
			for k := 0; k < b; k++ {
				s += s1[r*b+k] * s1[c*b+k]
			}
			if d := math.Abs(after[r*b+c] - (before[r*b+c] - s)); d > 1e-12 {
				t.Fatalf("gemm[%d][%d] wrong by %v", r, c, d)
			}
		}
	}
}

// gemmNaive is the one-element-at-a-time loop gemmTiles replaced: each
// element's dot product summed from 0 in ascending t, then subtracted.
func gemmNaive(d, s1, s2 []float64, b int, lower bool) {
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			if lower && c > r {
				continue
			}
			s := 0.0
			for t := 0; t < b; t++ {
				s += s1[r*b+t] * s2[c*b+t]
			}
			d[r*b+c] -= s
		}
	}
}

// TestGemmTiledMatchesNaive checks the 2×2-tiled gemm bit for bit
// against the plain triple loop, on diagonal and off-diagonal blocks, at
// block sizes with and without a leftover row and column.
func TestGemmTiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	for _, b := range []int{1, 2, 3, 5, 8, 32} {
		for _, lower := range []bool{true, false} {
			t.Run(fmt.Sprintf("B%d/lower=%v", b, lower), func(t *testing.T) {
				s1, s2, d := fill(b*b), fill(b*b), fill(b*b)
				if lower {
					s2 = s1 // a diagonal block's update reads one source twice
				}
				want := slices.Clone(d)
				gemmNaive(want, s1, s2, b, lower)
				gemmTiles(d, s1, s2, b, lower)
				for i := range want {
					if math.Float64bits(d[i]) != math.Float64bits(want[i]) {
						t.Fatalf("element (%d,%d) is %v, want %v", i/b, i%b, d[i], want[i])
					}
				}
			})
		}
	}
}

// BenchmarkGemm is one diagonal and one off-diagonal update of 32×32
// blocks (the default block size) on a native P=1 runtime.
func BenchmarkGemm(b *testing.B) {
	prm, err := Params{N: 96, B: 32}.normalize()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	ap := build(rt, prm, false)
	b.ReportAllocs()
	err = rt.Run(func(ctx *cool.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ap.gemm(ctx, 1, 1, 0)
			ap.gemm(ctx, 2, 1, 0)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// factored runs the served variant at size n on a native P=1 runtime
// without finishing it.
func factored(tb testing.TB, n int) *app {
	tb.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := Program.Sized(n).Build(rt, Program.Served, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.Run(inst.Main); err != nil {
		tb.Fatal(err)
	}
	return inst.(*app)
}

// resetRefMemo empties the reference memo.
func resetRefMemo() { refMemo.Reset() }

// TestFinishFailsOnNaN plants a NaN in an off-diagonal entry of a correct
// factor: a NaN difference compares false with everything, so a gate on
// d > max would report a tiny maxdiff and pass it.
func TestFinishFailsOnNaN(t *testing.T) {
	ap := factored(t, Program.Sizes["smoke"])
	if _, err := ap.Finish(); err != nil {
		t.Fatalf("clean factor: %v", err)
	}
	ap.blks[ap.blockIdx(1, 0)].Data[0] = math.NaN()
	if ev, err := ap.Finish(); err == nil {
		t.Fatalf("a NaN factor passed: %s", ev.Verify(false))
	}
}

// TestReferenceMemoMatchesFresh checks the memoized reference against a
// freshly built one, bit for bit, at every preset.
func TestReferenceMemoMatchesFresh(t *testing.T) {
	resetRefMemo()
	for name, n := range Program.Sizes {
		for pass := 0; pass < 2; pass++ { // the build, then the memo hit
			got, want := reference(n), refFactor(n)
			if len(got) != len(want) {
				t.Fatalf("%s: reference has %d entries, want %d", name, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s pass %d: entry %d is %v, want %v", name, pass, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReferenceConcurrentFinish finishes runs at two sizes from several
// goroutines at once, starting from an empty memo; run it under -race.
func TestReferenceConcurrentFinish(t *testing.T) {
	apps := []*app{factored(t, Program.Sizes["smoke"]), factored(t, Program.Sizes["small"])}
	resetRefMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		wg.Add(1)
		go func(ap *app) {
			defer wg.Done()
			_, err := ap.Finish()
			errs <- err
		}(apps[g%len(apps)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceMemoEvictsOldest adds one dimension more than the memo
// holds: the first one goes, the rest stay in order.
func TestReferenceMemoEvictsOldest(t *testing.T) {
	resetRefMemo()
	dims := []int{4, 8, 12, 16, 20}
	for _, n := range dims {
		reference(n)
	}
	held := refMemo.Keys()
	if want := dims[1:]; !slices.Equal(held, want) {
		t.Fatalf("memo holds %v, want %v", held, want)
	}
}

// BenchmarkFinish is the verification of one factorization at the
// serving catalog's small preset.
func BenchmarkFinish(b *testing.B) {
	ap := factored(b, Program.Sizes["small"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ap.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}
