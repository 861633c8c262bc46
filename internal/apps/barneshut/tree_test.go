package barneshut

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

func builtTree(t *testing.T, bodies int) *app {
	t.Helper()
	prm, err := Params{Bodies: bodies, Groups: 8, Steps: 1, Theta: 0.6, Seed: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := build(rt, prm, false)
	if err := rt.Run(func(ctx *cool.Ctx) { ap.buildTree(ctx) }); err != nil {
		t.Fatal(err)
	}
	return ap
}

func TestTreeConservesMass(t *testing.T) {
	ap := builtTree(t, 256)
	root := ap.nodes[0]
	if d := math.Abs(root.mass - 1.0); d > 1e-12 { // masses are 1/N each
		t.Fatalf("root mass = %v, want 1 (±1e-12)", root.mass)
	}
}

func TestTreeCentroidInsideUnitCube(t *testing.T) {
	ap := builtTree(t, 256)
	for i, nd := range ap.nodes {
		if nd.mass == 0 {
			continue
		}
		if nd.mx < 0 || nd.mx > 1 || nd.my < 0 || nd.my > 1 || nd.mz < 0 || nd.mz > 1 {
			t.Fatalf("node %d centroid (%v,%v,%v) outside the unit cube", i, nd.mx, nd.my, nd.mz)
		}
	}
}

func TestTreeLeavesHoldEveryBody(t *testing.T) {
	ap := builtTree(t, 256)
	found := map[int]bool{}
	for _, nd := range ap.nodes {
		if nd.leaf && nd.body >= 0 {
			if found[nd.body] {
				t.Fatalf("body %d in two leaves", nd.body)
			}
			found[nd.body] = true
		}
	}
	if len(found) != 256 {
		t.Fatalf("leaves hold %d of 256 bodies", len(found))
	}
}

func TestTreeInternalMassEqualsChildren(t *testing.T) {
	ap := builtTree(t, 256)
	for i, nd := range ap.nodes {
		if nd.leaf {
			continue
		}
		var sum float64
		for _, c := range nd.children {
			if c != 0 {
				sum += ap.nodes[c].mass
			}
		}
		if d := math.Abs(sum - nd.mass); d > 1e-12 {
			t.Fatalf("node %d: children mass %v, node mass %v", i, sum, nd.mass)
		}
	}
}

func TestTreeNodeCountBounded(t *testing.T) {
	ap := builtTree(t, 512)
	// Each insertion splits at most a chain of cells; for random uniform
	// bodies the tree stays comfortably under the 4N record budget.
	if len(ap.nodes) > 4*512 {
		t.Fatalf("tree has %d nodes for 512 bodies; exceeds the record budget", len(ap.nodes))
	}
}

func TestForceIsFiniteAndNonzero(t *testing.T) {
	prm, err := Params{Bodies: 256, Groups: 8, Steps: 1, Theta: 0.6, Seed: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	ap := build(rt, prm, false)
	err = rt.Run(func(ctx *cool.Ctx) {
		ap.buildTree(ctx)
		var nonzero int
		for bi := 0; bi < 32; bi++ {
			ax, ay, az := ap.force(ctx, bi)
			if math.IsNaN(ax+ay+az) || math.IsInf(ax+ay+az, 0) {
				t.Errorf("body %d: non-finite force", bi)
			}
			if ax != 0 || ay != 0 || az != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Error("all sampled forces are zero")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

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

// forceP1 runs Affinity+Distr at P=1 on one backend, runs times on one
// runtime with a Reset between, and returns the hash of every group's
// body data in group order plus the last run's report.
func forceP1(t *testing.T, backend cool.Backend, bodies, runs int) (uint64, cool.Report) {
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
		if inst, err = Program.Sized(bodies).Build(rt, int(AffDistr), nil); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(inst.Main); err != nil {
			t.Fatal(err)
		}
	}
	ap := inst.(*app)
	groups := make([][]float64, len(ap.groups))
	for i, g := range ap.groups {
		groups[i] = g.Data
	}
	return hashF64(groups...), rt.Report()
}

// TestForceGolden pins barneshut's numbers: the body data after a P=1
// Affinity+Distr run on both backends, and the simulated cycles, compute
// cycles and references of that run. The tree build and force walk may
// be rewritten freely as long as every ctx.Access/Compute call and the
// per-element floating-point order stay, and then all of these are
// bit-identical. The warm arm runs the job twice on one runtime, so the
// second run's bodies and tree are the first run's arrays, reused after
// Reset.
func TestForceGolden(t *testing.T) {
	golden := []struct {
		bodies          int
		data            uint64
		cycles, compute int64
		refs            int64
	}{
		{128, 0xc3580e7603a8dd87, 1_005_641, 884_490, 38_283},
		{256, 0xfdefe604fac1d142, 2_875_351, 2_624_490, 109_842},
		{1024, 0x35e22af2c6db2d69, 22_578_133, 19_156_486, 772_417},
	}
	for _, g := range golden {
		t.Run(fmt.Sprint(g.bodies), func(t *testing.T) {
			for _, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
				for runs := 1; runs <= 2; runs++ {
					got, rep := forceP1(t, b, g.bodies, runs)
					if got != g.data {
						t.Errorf("backend %v, run %d: body data hash %#x, want %#x", b, runs, got, g.data)
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

// BenchmarkForce is one body's tree walk at the serving catalog's small
// preset on a native P=1 runtime.
func BenchmarkForce(b *testing.B) {
	prm, err := Program.Sized(Program.Sizes["small"]).(Params).normalize()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	ap := build(rt, prm, true)
	var sink float64
	b.ReportAllocs()
	err = rt.Run(func(ctx *cool.Ctx) {
		ap.buildTree(ctx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ax, _, _ := ap.force(ctx, i%prm.Bodies)
			sink += ax
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	if math.IsNaN(sink) {
		b.Fatal("non-finite force")
	}
}
