package blockcho

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// hashBlocks is FNV-64a over the little-endian bits of every block's
// elements, blocks in blockIdx order.
func hashBlocks(ap *app) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, blk := range ap.blks {
		for _, v := range blk.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// factorP1 runs Affinity+Distr at P=1 on one backend, runs times on one
// runtime with a Reset between, and returns the hash of every block
// after the last run plus that run's report.
func factorP1(t *testing.T, backend cool.Backend, n, runs int) (uint64, cool.Report) {
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
		if inst, err = Program.Sized(n).Build(rt, int(AffDistr), nil); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(inst.Main); err != nil {
			t.Fatal(err)
		}
	}
	return hashBlocks(inst.(*app)), rt.Report()
}

// TestBlockGolden pins blockcho's numbers: every block after a P=1
// Affinity+Distr run on both backends, and the simulated cycles, compute
// cycles and references of that run. The potrf, trsm and gemm kernels
// may be rewritten freely as long as every ctx.Access/Compute call and
// the per-element floating-point order stay, and then all of these are
// bit-identical. The warm arm runs the job twice on one runtime, so the
// second run's blocks are the first run's arrays, reused after Reset.
func TestBlockGolden(t *testing.T) {
	golden := []struct {
		n               int
		data            uint64
		cycles, compute int64
		refs            int64
	}{
		{64, 0x6af503dd7b04a6c9, 132_960, 120_148, 896},
		{128, 0x2c3406d958bbb078, 944_048, 895_656, 5_888},
		{256, 0x6bd70ecf4910630a, 6_906_256, 6_509_904, 40_448},
	}
	for _, g := range golden {
		t.Run(fmt.Sprint(g.n), func(t *testing.T) {
			for _, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
				for runs := 1; runs <= 2; runs++ {
					got, rep := factorP1(t, b, g.n, runs)
					if got != g.data {
						t.Errorf("backend %v, run %d: block hash %#x, want %#x", b, runs, got, g.data)
					}
					if b != cool.BackendSim {
						continue
					}
					if rep.Cycles != g.cycles || rep.Total.ComputeCycles != g.compute || rep.Total.Refs != g.refs {
						t.Errorf("run %d: simulated cycles %d, compute %d, refs %d; want %d, %d, %d",
							runs, rep.Cycles, rep.Total.ComputeCycles, rep.Total.Refs, g.cycles, g.compute, g.refs)
					}
				}
			}
		})
	}
}
