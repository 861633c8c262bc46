// Package locusroute is the LocusRoute case study (paper §6.2): a
// standard-cell router that iteratively rips up and re-routes wires,
// evaluating candidate routes against a shared CostArray of per-cell
// congestion counts. Locality lives in the CostArray: wires whose pins
// fall in the same geographic region touch the same part of the array, so
// the COOL program (Figure 9) assigns each region to a processor and
// routes a region's wires there via processor affinity; distributing the
// CostArray regions across memories converts the remaining misses from
// remote to local.
//
// As in the paper, the input is a synthetic dense circuit: wires
// clustered within vertical regions of the array, with a fraction
// spanning neighbouring regions.
package locusroute

import (
	"fmt"
	"math/rand"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// Variant indexes the program versions of Figure 10.
type Variant int

const (
	Base Variant = iota
	Affinity
	AffinityDistr
)

// Variants are the program versions in order.
var Variants = []harness.Variant{
	// Wire tasks scheduled round-robin without regard for locality.
	{Name: "Base", IgnoreHints: true},
	// Processor affinity by the wire's CostArray region.
	{Name: "Affinity"},
	// Affinity plus physical distribution of the CostArray regions
	// across the processors' memories.
	{Name: "Affinity+ObjectDistr", Distribute: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares locusroute to the registry.
var Program = harness.Program{
	Name:           "locusroute",
	Rows:           Variants,
	Served:         int(AffinityDistr),
	Sizes:          map[string]int{"smoke": 6, "small": 6, "medium": 12, "large": 24},
	ScheduleTokens: map[string]bool{"cost": true},
	Sized: func(size int) harness.Workload {
		p := DefaultParams()
		if size > 0 {
			p.WiresPer = size
		}
		return p
	},
}

// Params sizes the synthetic circuit.
type Params struct {
	W, H       int     // routing cells
	Regions    int     // vertical strips of the CostArray
	WiresPer   int     // wires per region
	CrossFrac  float64 // fraction of wires spanning two regions
	Iterations int
	Seed       int64
}

// DefaultParams returns the standard synthetic circuit.
func DefaultParams() Params {
	return Params{W: 512, H: 64, Regions: 32, WiresPer: 24, CrossFrac: 0.1, Iterations: 3, Seed: 7}
}

func (p Params) normalize() (Params, error) {
	d := DefaultParams()
	if p.W <= 0 {
		p.W = d.W
	}
	if p.H <= 0 {
		p.H = d.H
	}
	if p.Regions <= 0 {
		p.Regions = d.Regions
	}
	if p.WiresPer <= 0 {
		p.WiresPer = d.WiresPer
	}
	if p.CrossFrac < 0 {
		p.CrossFrac = d.CrossFrac
	}
	if p.Iterations <= 0 {
		p.Iterations = d.Iterations
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.W%p.Regions != 0 {
		return p, fmt.Errorf("locusroute: W (%d) must be divisible by Regions (%d)", p.W, p.Regions)
	}
	return p, nil
}

// wire is one two-pin wire; route remembers the laid path for rip-up.
type wire struct {
	x1, y1, x2, y2 int
	routed         bool
	horizFirst     bool // which L-shape is laid
}

// Result is the correctness evidence of one run and its routing quality.
type Result struct {
	TotalCost  int64 // sum over cells of h²+v² (congestion metric)
	Wires      int
	Consistent bool // CostArray rebuilt from final routes matches
}

func (r Result) Verify(serial bool) string {
	if serial {
		return fmt.Sprintf("consistent=%v cost=%d", r.Consistent, r.TotalCost)
	}
	return fmt.Sprintf("consistent=%v cost=%d wires=%d", r.Consistent, r.TotalCost, r.Wires)
}

type app struct {
	prm   Params
	procs int       // wire tasks go to region mod procs
	cost  *cool.I64 // column-major: cell (x,y) = (x*H+y)*2 { +0: h, +1: v }
	wires []wire    // this job's copy of the circuit, routes included

	// The route tasks' body and placement, method values bound once,
	// when the app is made. The app, wires included, comes from stash,
	// so an iteration allocates nothing.
	routeFn func(*cool.Ctx, int)
	optFn   func(int) []cool.SpawnOpt
	optBuf  [1]cool.SpawnOpt
}

// stash hands an app from a finished job to the next job of equal
// Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// circuits holds the generated circuits of the most recently first-seen
// Params, a pure function of them. A job routes a copy.
var circuits = harness.Memo[Params, []wire]{Cap: 8}

func generate(prm Params) []wire {
	rng := rand.New(rand.NewSource(prm.Seed))
	strip := prm.W / prm.Regions
	wires := make([]wire, 0, prm.Regions*prm.WiresPer)
	for r := 0; r < prm.Regions; r++ {
		x0 := r * strip
		for i := 0; i < prm.WiresPer; i++ {
			w := wire{}
			w.x1 = x0 + rng.Intn(strip)
			w.y1 = rng.Intn(prm.H)
			if rng.Float64() < prm.CrossFrac && r+1 < prm.Regions {
				w.x2 = x0 + strip + rng.Intn(strip) // spans next region
			} else {
				w.x2 = x0 + rng.Intn(strip)
			}
			w.y2 = rng.Intn(prm.H)
			wires = append(wires, w)
		}
	}
	return wires
}

// Build validates the parameters and lays the CostArray out as version v asks.
func (p Params) Build(rt *cool.Runtime, v int, _ any) (harness.Instance, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	return build(rt, p, Variants[v].Distribute), nil
}

func build(rt *cool.Runtime, prm Params, distribute bool) *app {
	a, ok := stash.Take(prm)
	if !ok {
		a = &app{prm: prm}
		a.routeFn, a.optFn = a.routeN, a.routeOpts
	}
	a.procs = rt.Processors()
	a.wires = append(a.wires[:0], circuits.Get(prm, func() []wire { return generate(prm) })...)
	a.cost = rt.NewI64Pages(prm.W*prm.H*2, 0)
	if distribute {
		strip := prm.W / prm.Regions
		bytesPerStrip := int64(strip * prm.H * 2 * 8)
		for r := 0; r < prm.Regions; r++ {
			rt.Migrate(a.cost.Addr(r*strip*prm.H*2), bytesPerStrip, r%rt.Processors())
		}
	}
	return a
}

// region returns the CostArray region of the wire's midpoint (the
// paper's Region(CurrentWire) function).
func (ap *app) region(w *wire) int {
	mid := (w.x1 + w.x2) / 2
	return mid / (ap.prm.W / ap.prm.Regions)
}

// cellIdx returns the element index of cell (x, y).
func (ap *app) cellIdx(x, y int) int { return (x*ap.prm.H + y) * 2 }

// leg is one straight run of an L-shaped route: count cells whose
// element indices start at start and step by stride. dir is the counter
// the leg uses within each cell: 0 for a horizontal leg (h), 1 for a
// vertical one (v).
type leg struct{ start, stride, count, dir int }

// legs returns the two legs of one L-shaped route, in visiting order:
// the horizontal leg at the first pin's row and the vertical leg at the
// second pin's column, or, when horizFirst is false, the vertical leg at
// the first pin's column and the horizontal leg at the second pin's row.
// Each leg runs from its lower coordinate to its higher one.
func (ap *app) legs(w *wire, horizFirst bool) [2]leg {
	x1, y1, x2, y2 := w.x1, w.y1, w.x2, w.y2
	h := leg{stride: 2 * ap.prm.H, count: max(x1, x2) - min(x1, x2) + 1}
	v := leg{stride: 2, count: max(y1, y2) - min(y1, y2) + 1, dir: 1}
	if !horizFirst {
		v.start = ap.cellIdx(x1, min(y1, y2))
		h.start = ap.cellIdx(min(x1, x2), y2)
		return [2]leg{v, h}
	}
	h.start = ap.cellIdx(min(x1, x2), y1)
	v.start = ap.cellIdx(x2, min(y1, y2))
	return [2]leg{h, v}
}

// pathCost evaluates one L-shaped candidate (reading the CostArray).
func (ap *app) pathCost(ctx *cool.Ctx, w *wire, horizFirst bool) int64 {
	var total int64
	for _, l := range ap.legs(w, horizFirst) {
		for k := range l.count {
			idx := l.start + k*l.stride
			ctx.Access(ap.cost.Addr(idx), 16, false)
			// Concurrent routers update the cell through AddI64; the
			// atomic load keeps the native backend race-free without
			// changing the simulated charge above.
			total += 1 + ctx.LoadI64(ap.cost, idx+l.dir)
			ctx.Compute(3)
		}
	}
	return total
}

// lay adds (delta=+1) or rips (delta=-1) the wire's chosen route.
func (ap *app) lay(ctx *cool.Ctx, w *wire, delta int64) {
	for _, l := range ap.legs(w, w.horizFirst) {
		for k := range l.count {
			idx := l.start + k*l.stride + l.dir
			ctx.Access(ap.cost.Addr(idx), 8, true)
			ctx.AddI64(ap.cost, idx, delta)
			ctx.Compute(1)
		}
	}
}

// route rips up the wire's previous path, evaluates both L-shapes, and
// lays the cheaper one (the paper's Route() wire task).
func (ap *app) route(ctx *cool.Ctx, w *wire) {
	if w.routed {
		ap.lay(ctx, w, -1)
		w.routed = false
	}
	ca := ap.pathCost(ctx, w, true)
	cb := ap.pathCost(ctx, w, false)
	w.horizFirst = ca <= cb
	w.routed = true
	ap.lay(ctx, w, +1)
}

// Main routes every wire once per iteration, each inside a waitfor.
func (ap *app) Main(ctx *cool.Ctx) {
	for it := 0; it < ap.prm.Iterations; it++ {
		ctx.WaitFor(func() {
			ctx.SpawnN("route", len(ap.wires), ap.routeFn, ap.optFn)
		})
	}
}

// routeN is route task i: wire i.
func (ap *app) routeN(c *cool.Ctx, i int) { ap.route(c, &ap.wires[i]) }

// routeOpts places route task i on its wire's region's processor.
func (ap *app) routeOpts(i int) []cool.SpawnOpt {
	ap.optBuf[0] = cool.OnProcessor(ap.region(&ap.wires[i]) % ap.procs)
	return ap.optBuf[:]
}

// Serial routes all wires sequentially in the main task.
func (ap *app) Serial(ctx *cool.Ctx) {
	for it := 0; it < ap.prm.Iterations; it++ {
		for i := range ap.wires {
			ap.route(ctx, &ap.wires[i])
		}
	}
}

// Finish computes the congestion metric and checks the incremental
// CostArray against the final routes in place: it rips every routed
// wire's legs off the array, which is consistent exactly when every
// cell then reads zero (the array equals one rebuilt from the routes),
// and lays them again, so the array is left as the run left it. It
// issues no Access or Compute: the check is host work after the run.
func (ap *app) Finish() (harness.Evidence, error) {
	cost := ap.cost.Data
	var total int64
	for i := 0; i < len(cost); i += 2 {
		h, v := cost[i], cost[i+1]
		total += h*h + v*v
	}
	ap.layAll(-1)
	consistent := true
	for _, c := range cost {
		if c != 0 {
			consistent = false
			break
		}
	}
	ap.layAll(+1)
	return Result{TotalCost: total, Wires: len(ap.wires), Consistent: consistent}, nil
}

// Release returns the app to the stash, dropping the runtime's array.
func (ap *app) Release() {
	ap.cost = nil
	stash.Put(ap.prm, ap)
}

// layAll adds delta to every cell of every routed wire's route, on the
// host, with no simulated charge.
func (ap *app) layAll(delta int64) {
	cost := ap.cost.Data
	for i := range ap.wires {
		w := &ap.wires[i]
		if !w.routed {
			continue
		}
		for _, l := range ap.legs(w, w.horizFirst) {
			for k := range l.count {
				cost[l.start+k*l.stride+l.dir] += delta
			}
		}
	}
}
