package ocean

import (
	"fmt"
	"testing"

	cool "github.com/coolrts/cool"
)

// TestOceanInitGolden checks every element of every grid against the
// initial-state formula, at the catalog sizes and at grids shorter than
// the formula's 97-element period and exactly a multiple of it. The warm
// arm first runs a job that steps the grids and resets the runtime, so
// the checked build lays its grids out in that job's arrays.
func TestOceanInitGolden(t *testing.T) {
	for _, n := range []int{64, 128, 192, 5, 97} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			for _, arm := range []string{"fresh", "warm"} {
				rt, err := cool.NewRuntime(cool.Config{Processors: 1})
				if err != nil {
					t.Fatal(err)
				}
				prm := Params{N: n, Regions: 1, Grids: 8, Steps: 1}
				if arm == "warm" {
					if err := rt.Run(build(rt, prm, false).Main); err != nil {
						t.Fatal(err)
					}
					if err := rt.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				ap := build(rt, prm, false)
				for g, grid := range ap.grids {
					if len(grid.Data) != n*n {
						t.Fatalf("%s: grid %d has %d elements, want %d", arm, g, len(grid.Data), n*n)
					}
					for i, v := range grid.Data {
						if want := float64((i*31+g*17)%97) / 97; v != want {
							t.Fatalf("%s: grid %d element %d = %v, want %v", arm, g, i, v, want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkBuild is ocean's set-up at the serving catalog's large preset
// on a native P=2 runtime: the grids' allocation, initial state and
// distribution. The fresh arm builds on a new runtime each time, so every
// grid is a new array; the warm arm resets one runtime between builds,
// so each build reuses the previous one's grids.
func BenchmarkBuild(b *testing.B) {
	prm, err := Program.Sized(Program.Sizes["large"]).(Params).normalize()
	if err != nil {
		b.Fatal(err)
	}
	newRT := func() *cool.Runtime {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
		if err != nil {
			b.Fatal(err)
		}
		return rt
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rt := newRT()
			b.StartTimer()
			build(rt, prm, true)
		}
	})
	b.Run("warm", func(b *testing.B) {
		rt := newRT()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			build(rt, prm, true)
			if err := rt.Reset(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestStencilMatchesDirectComputation verifies the five-point kernel
// against an independent recomputation.
func TestStencilMatchesDirectComputation(t *testing.T) {
	prm := Params{N: 16, Regions: 4, Grids: 2, Steps: 1}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := build(rt, prm, false)
	src := make([]float64, len(ap.grids[0].Data))
	copy(src, ap.grids[0].Data)
	before := make([]float64, len(ap.grids[1].Data))
	copy(before, ap.grids[1].Data)

	err = rt.Run(func(ctx *cool.Ctx) {
		for r := 0; r < prm.Regions; r++ {
			ap.stencil(ctx, ap.grids[0], ap.grids[1], r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	n := prm.N
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := ap.grids[1].Data[i*n+j]
			var want float64
			if i == 0 || i == n-1 || j == 0 || j == n-1 {
				want = before[i*n+j] // boundary untouched
			} else {
				want = 0.2 * (src[i*n+j] + src[i*n+j-1] + src[i*n+j+1] +
					src[(i-1)*n+j] + src[(i+1)*n+j])
			}
			if got != want {
				t.Fatalf("stencil (%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestAxpyMatchesDirectComputation verifies the inter-grid accumulate.
func TestAxpyMatchesDirectComputation(t *testing.T) {
	prm := Params{N: 16, Regions: 4, Grids: 2, Steps: 1}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := build(rt, prm, false)
	src := make([]float64, len(ap.grids[0].Data))
	copy(src, ap.grids[0].Data)
	dst := make([]float64, len(ap.grids[1].Data))
	copy(dst, ap.grids[1].Data)

	err = rt.Run(func(ctx *cool.Ctx) {
		for r := 0; r < prm.Regions; r++ {
			ap.axpy(ctx, ap.grids[0], ap.grids[1], r, 0.25)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if want := dst[i] + 0.25*src[i]; ap.grids[1].Data[i] != want {
			t.Fatalf("axpy[%d] = %v, want %v", i, ap.grids[1].Data[i], want)
		}
	}
}
