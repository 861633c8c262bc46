package barneshut

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

func builtTree(t *testing.T, bodies int) *app {
	t.Helper()
	ap, rt := placed(t, cool.BackendSim, bodies, 0)
	if err := rt.Run(func(ctx *cool.Ctx) { ap.buildTree(ctx) }); err != nil {
		t.Fatal(err)
	}
	return ap
}

// placed builds an app of the given bodies on a P=1 runtime of backend,
// with its first coincident bodies moved onto one point.
func placed(t *testing.T, backend cool.Backend, bodies, coincident int) (*app, *cool.Runtime) {
	t.Helper()
	prm, err := Params{Bodies: bodies, Groups: 8, Steps: 1, Theta: 0.6, Seed: 4}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ap := build(rt, prm, false)
	for i := range coincident {
		arr, off := ap.body(i)
		arr.Data[off], arr.Data[off+1], arr.Data[off+2] = 0.3, 0.3, 0.3
	}
	return ap, rt
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
	found := map[int32]bool{}
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

// TestWalkIsThreadedPreOrder checks the array the force walk reads
// against the tree itself: the records are the nodes in pre-order,
// children in index order, each carrying its node's centroid, mass,
// size, body and leaf flag; a cell's first child comes right after it,
// and each skip is the index just past the node's subtree. The
// coincident case has two bodies at one point, whose leaf ends a chain
// of single-child cells at the depth limit.
func TestWalkIsThreadedPreOrder(t *testing.T) {
	for _, tc := range []struct{ bodies, coincident int }{{128, 0}, {256, 0}, {1024, 0}, {128, 2}} {
		t.Run(fmt.Sprintf("%d/coincident=%d", tc.bodies, tc.coincident), func(t *testing.T) {
			ap, rt := placed(t, cool.BackendSim, tc.bodies, tc.coincident)
			if err := rt.Run(func(ctx *cool.Ctx) { ap.buildTree(ctx) }); err != nil {
				t.Fatal(err)
			}
			var order []int32       // node indices in pre-order
			size := map[int32]int{} // node index -> nodes in its subtree
			var pre func(n int32)
			pre = func(n int32) {
				order = append(order, n)
				start := len(order)
				if !ap.nodes[n].leaf {
					for _, c := range ap.nodes[n].children {
						if c != 0 {
							pre(c)
						}
					}
				}
				size[n] = 1 + len(order) - start
			}
			pre(0)
			if len(order) != len(ap.nodes) || len(ap.walk) != len(ap.nodes) {
				t.Fatalf("walk has %d records, tree %d nodes, pre-order reaches %d", len(ap.walk), len(ap.nodes), len(order))
			}
			for i, w := range ap.walk {
				n := order[i]
				nd := &ap.nodes[n]
				if w.n != n {
					t.Fatalf("record %d is node %d, want node %d", i, w.n, n)
				}
				if w.mx != nd.mx || w.my != nd.my || w.mz != nd.mz || w.mass != nd.mass ||
					w.size2 != (nd.half*2)*(nd.half*2) || w.body != nd.body || w.leaf != nd.leaf {
					t.Fatalf("record %d does not carry node %d's data: %+v vs %+v", i, n, w, *nd)
				}
				if int(w.skip) != i+size[n] {
					t.Fatalf("record %d (node %d): skip %d, want %d", i, n, w.skip, i+size[n])
				}
				if !w.leaf {
					first := slices.IndexFunc(nd.children[:], func(c int32) bool { return c != 0 })
					if first < 0 || ap.walk[i+1].n != nd.children[first] {
						t.Fatalf("record %d (cell %d): next record is node %d, not its first child", i, n, ap.walk[i+1].n)
					}
				}
			}
			if tc.coincident > 0 && len(ap.walk) < 60 {
				t.Fatalf("coincident bodies built only %d nodes; the depth-limit chain is missing", len(ap.walk))
			}
		})
	}
}

// TestCoincidentBodiesOutgrowTheTree places 8 bodies at one point: the
// chain of cells down to the depth limit needs more nodes than the
// tree's 4·Bodies records, and the run fails with a task panic on both
// backends instead of charging references past the records.
func TestCoincidentBodiesOutgrowTheTree(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		ap, rt := placed(t, backend, 8, 8)
		err := rt.Run(ap.Main)
		var pe *cool.TaskPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: Run returned %v, want a *TaskPanicError", backend, err)
		}
		if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, "node records") {
			t.Fatalf("%v: panic value %q does not name the node records", backend, msg)
		}
		if budget := ap.tree.Len() / nodeStride; len(ap.nodes) != budget {
			t.Fatalf("%v: the tree grew to %d nodes, want it stopped at its %d records", backend, len(ap.nodes), budget)
		}
	}
}

// TestFinishFailsOnNaN plants a NaN in one body's acceleration after a
// clean run: it is not in the position checksum, so only the finiteness
// check can see it.
func TestFinishFailsOnNaN(t *testing.T) {
	ap, rt := placed(t, cool.BackendNative, 256, 0)
	if err := rt.Run(ap.Main); err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Finish(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	ap.groups[3].Data[2*fieldsPerBody+8] = math.NaN()
	if ev, err := ap.Finish(); err == nil {
		t.Fatalf("NaN body data passed: %s", ev.Verify(false))
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

// BenchmarkJob is a whole small job (build, run, finish) on a warm
// native P=1 runtime, reset between jobs. Unlike BenchmarkForce, which
// walks for one body after another on a hot cache, it sees the walk's
// memory layout as a served job does.
func BenchmarkJob(b *testing.B) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	w := Program.Sized(Program.Sizes["small"])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inst, err := w.Build(rt, Program.Served, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Run(inst.Main); err != nil {
			b.Fatal(err)
		}
		if _, err := inst.Finish(); err != nil {
			b.Fatal(err)
		}
		if err := rt.Reset(); err != nil {
			b.Fatal(err)
		}
	}
}
