package locusroute

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"testing/quick"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

func testApp(t *testing.T) (*app, *cool.Runtime) {
	t.Helper()
	prm, err := Params{W: 64, H: 32, Regions: 4, WiresPer: 2, Iterations: 1, Seed: 1}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	return build(rt, prm, false), rt
}

// walk is the cell walk the legs replaced, kept as their oracle: it
// visits the cells of one L-shaped route, the horizontal leg at the
// first pin's row and the vertical leg at the second pin's column (or
// the transpose when horizFirst is false).
func walk(ap *app, w *wire, horizFirst bool, visit func(idx int, horiz bool)) {
	x1, y1, x2, y2 := w.x1, w.y1, w.x2, w.y2
	if !horizFirst {
		for y := min(y1, y2); y <= max(y1, y2); y++ {
			visit(ap.cellIdx(x1, y), false)
		}
		for x := min(x1, x2); x <= max(x1, x2); x++ {
			visit(ap.cellIdx(x, y2), true)
		}
		return
	}
	for x := min(x1, x2); x <= max(x1, x2); x++ {
		visit(ap.cellIdx(x, y1), true)
	}
	for y := min(y1, y2); y <= max(y1, y2); y++ {
		visit(ap.cellIdx(x2, y), false)
	}
}

// TestWalkVisitsExpectedCellCount: an L-route's legs cover |dx|+1
// horizontal cells and |dy|+1 vertical cells, and yield the oracle
// walk's cell indices, in its order, with its horizontal flags.
func TestWalkVisitsExpectedCellCount(t *testing.T) {
	ap, _ := testApp(t)
	type cell struct {
		idx   int
		horiz bool
	}
	f := func(x1r, y1r, x2r, y2r uint8, horizFirst bool) bool {
		w := &wire{
			x1: int(x1r) % ap.prm.W, y1: int(y1r) % ap.prm.H,
			x2: int(x2r) % ap.prm.W, y2: int(y2r) % ap.prm.H,
		}
		var want, got []cell
		walk(ap, w, horizFirst, func(idx int, horiz bool) { want = append(want, cell{idx, horiz}) })
		h, v := 0, 0
		for _, l := range ap.legs(w, horizFirst) {
			for k := range l.count {
				idx := l.start + k*l.stride
				if idx < 0 || idx+1 >= ap.prm.W*ap.prm.H*2 {
					t.Fatalf("cell index %d out of range", idx)
				}
				got = append(got, cell{idx, l.dir == 0})
				if l.dir == 0 {
					h++
				} else {
					v++
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		dx, dy := w.x2-w.x1, w.y2-w.y1
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return h == dx+1 && v == dy+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// routeP1 runs the served variant at P=1 on one backend, runs times on
// one runtime with a Reset between, and returns the FNV-64a hash of the
// last run's final CostArray plus its report.
func routeP1(t *testing.T, backend cool.Backend, wiresPer, runs int) (uint64, cool.Report) {
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
		if inst, err = Program.Sized(wiresPer).Build(rt, Program.Served, nil); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(inst.Main); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range inst.(*app).cost.Data {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64(), rt.Report()
}

// TestRouteGolden pins locusroute's numbers: the CostArray after a P=1
// run of the served variant on both backends, and the simulated cycles,
// compute cycles and references of that run. The cell walk may be
// rewritten freely as long as every ctx.Access/Compute/LoadI64/AddI64
// call keeps its order and value, and then all of these are identical.
// The warm arm routes twice on one runtime: the second run's CostArray is
// the first run's, reused after Reset, and must start from zero.
func TestRouteGolden(t *testing.T) {
	golden := []struct {
		size            string
		cost            uint64
		cycles, compute int64
		refs            int64
	}{
		{"small", 0x03b3bc1cf9b76347, 626_442, 132_664, 63_448},
		{"large", 0xd159a167ebb01047, 2_180_898, 519_018, 248_226},
	}
	for _, g := range golden {
		t.Run(g.size, func(t *testing.T) {
			for _, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
				for runs := 1; runs <= 2; runs++ {
					got, rep := routeP1(t, b, Program.Sizes[g.size], runs)
					if got != g.cost {
						t.Errorf("backend %v, run %d: CostArray hash %#x, want %#x", b, runs, got, g.cost)
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

// BenchmarkRoute is one wire's route task (rip-up, both candidate costs,
// lay) at the serving catalog's large preset, looped inside one task of
// a native P=1 runtime.
func BenchmarkRoute(b *testing.B) {
	prm, err := Program.Sized(Program.Sizes["large"]).(Params).normalize()
	if err != nil {
		b.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		b.Fatal(err)
	}
	ap := build(rt, prm, true)
	b.ReportAllocs()
	err = rt.Run(func(ctx *cool.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ap.route(ctx, &ap.wires[i%len(ap.wires)])
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestLayRipRoundTrip: laying then ripping a route restores the array.
func TestLayRipRoundTrip(t *testing.T) {
	ap, rt := testApp(t)
	err := rt.Run(func(ctx *cool.Ctx) {
		w := &ap.wires[0]
		w.horizFirst = true
		ap.lay(ctx, w, +1)
		nonzero := 0
		for _, v := range ap.cost.Data {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Error("lay wrote nothing")
		}
		ap.lay(ctx, w, -1)
		for i, v := range ap.cost.Data {
			if v != 0 {
				t.Errorf("cell %d = %d after rip", i, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPathCostCountsCongestion: the cost of a candidate grows with the
// congestion already laid along it.
func TestPathCostCountsCongestion(t *testing.T) {
	ap, rt := testApp(t)
	err := rt.Run(func(ctx *cool.Ctx) {
		w := &wire{x1: 1, y1: 1, x2: 5, y2: 4}
		empty := ap.pathCost(ctx, w, true)
		// Lay an overlapping wire, then re-evaluate.
		w2 := &wire{x1: 1, y1: 1, x2: 5, y2: 1, horizFirst: true}
		ap.lay(ctx, w2, +1)
		congested := ap.pathCost(ctx, w, true)
		if congested <= empty {
			t.Errorf("cost ignored congestion: %d vs %d", congested, empty)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegionOfMidpoint: the region function uses the wire midpoint, as in
// Figure 9.
func TestRegionOfMidpoint(t *testing.T) {
	ap, _ := testApp(t)
	strip := ap.prm.W / ap.prm.Regions
	w := &wire{x1: 0, x2: 2*strip + 2} // midpoint in strip 1
	if got := ap.region(w); got != 1 {
		t.Fatalf("region = %d, want 1", got)
	}
}

// TestGenerateIsDeterministic: same seed, same circuit.
func TestGenerateIsDeterministic(t *testing.T) {
	p := DefaultParams()
	a := generate(p)
	b := generate(p)
	if len(a) != len(b) {
		t.Fatal("wire counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wire %d differs", i)
		}
	}
}
