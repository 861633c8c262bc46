// Package ocean is the Ocean case study (paper §6.1): a regular grid
// computation over many state-variable grids, each partitioned into an
// array of regions processed in parallel. The COOL program (Figure 5)
// relies on the simplest hints: the programmer distributes corresponding
// regions of all grids across the processors' memories once, and the
// default affinity of each region task does the rest — tasks run where
// their region lives, giving both cache reuse across timesteps and local
// memory misses.
package ocean

import (
	"fmt"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// Variant indexes the program versions.
type Variant int

const (
	Base Variant = iota
	Distr
	DistrAff
)

// Variants are the program versions in order.
var Variants = []harness.Variant{
	// Regions undistributed (one memory), hints ignored.
	{Name: "Base", IgnoreHints: true},
	// Regions distributed round-robin, hints still ignored.
	{Name: "Distr", IgnoreHints: true, Distribute: true},
	// Distribution plus default region affinity (Figure 5).
	{Name: "Distr+Aff", Distribute: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares ocean to the registry.
var Program = harness.Program{
	Name:   "ocean",
	Rows:   Variants,
	Served: int(DistrAff),
	Sizes:  map[string]int{"smoke": 64, "small": 64, "medium": 128, "large": 192},
	Sized: func(size int) harness.Workload {
		p := DefaultParams()
		if size > 0 {
			p.N = size
		}
		return p
	},
}

// Params sizes the workload.
type Params struct {
	N       int // grid dimension (N×N points per grid)
	Regions int // row bands per grid
	Grids   int // number of state-variable grids
	Steps   int // timesteps
}

// DefaultParams returns the standard workload.
func DefaultParams() Params { return Params{N: 192, Regions: 32, Grids: 8, Steps: 3} }

func (p Params) normalize() (Params, error) {
	d := DefaultParams()
	if p.N <= 0 {
		p.N = d.N
	}
	if p.Regions <= 0 {
		p.Regions = d.Regions
	}
	if p.Grids <= 0 {
		p.Grids = d.Grids
	}
	if p.Steps <= 0 {
		p.Steps = d.Steps
	}
	if p.Grids < 2 {
		return p, fmt.Errorf("ocean: need at least 2 grids")
	}
	if p.N%p.Regions != 0 {
		return p, fmt.Errorf("ocean: N (%d) must be divisible by Regions (%d)", p.N, p.Regions)
	}
	return p, nil
}

type app struct {
	prm   Params
	grids []*cool.F64

	// The running grid operation — its source and destination grids
	// and the destination's index — and the bodies and affinity of its
	// region tasks: method values bound once, when the app is made. The
	// app comes from stash, so the operations of a job allocate nothing.
	src, dst     *cool.F64
	dstGrid      int
	laplaceFn    func(*cool.Ctx, int)
	accumulateFn func(*cool.Ctx, int)
	optFn        func(int) []cool.SpawnOpt
	optBuf       [1]cool.SpawnOpt
}

// stash hands an app from a finished job to the next job of equal
// Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// Build validates the parameters and lays the grids out as version v asks.
func (p Params) Build(rt *cool.Runtime, v int, _ any) (harness.Instance, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	return build(rt, p, Variants[v].Distribute), nil
}

func build(rt *cool.Runtime, prm Params, distribute bool) *app {
	ap, ok := stash.Take(prm)
	if !ok {
		ap = &app{prm: prm, grids: make([]*cool.F64, prm.Grids)}
		ap.laplaceFn = ap.laplaceN
		ap.accumulateFn = ap.accumulateN
		ap.optFn = ap.regionOpts
	}
	for g := range ap.grids {
		ap.grids[g] = rt.NewF64Pages(prm.N*prm.N, 0)
		// Deterministic initial state, element i = ((i*31+g*17)%97)/97.
		// It repeats every 97 elements, so compute one period and tile
		// it by doubling the filled prefix.
		d := ap.grids[g].Data
		for i := range min(97, len(d)) {
			d[i] = float64((i*31+g*17)%97) / 97
		}
		for k := 97; k < len(d); k *= 2 {
			copy(d[k:], d[:k])
		}
	}
	if distribute {
		// Figure 5's distribute(): region r of every grid migrates to
		// processor r mod P, so corresponding regions are collocated.
		rows := prm.N / prm.Regions
		bytesPerRegion := int64(rows * prm.N * 8)
		for g := range ap.grids {
			for r := 0; r < prm.Regions; r++ {
				rt.Migrate(ap.grids[g].Addr(r*rows*prm.N), bytesPerRegion, r%rt.Processors())
			}
		}
	}
	return ap
}

// Release returns the app to the stash, dropping the runtime's handles.
func (ap *app) Release() {
	clear(ap.grids)
	ap.src, ap.dst = nil, nil
	stash.Put(ap.prm, ap)
}

// regionAddr returns the simulated address identifying region r of grid g
// (the object the region task has affinity for).
func (ap *app) regionAddr(g, r int) int64 {
	rows := ap.prm.N / ap.prm.Regions
	return ap.grids[g].Addr(r * rows * ap.prm.N)
}

// stencil computes dst's interior rows of region r from src (five-point
// average), charging reads of three source rows and a write of the
// destination row per row.
func (ap *app) stencil(ctx *cool.Ctx, src, dst *cool.F64, r int) {
	n := ap.prm.N
	rows := n / ap.prm.Regions
	lo, hi := r*rows, (r+1)*rows
	if lo == 0 {
		lo = 1
	}
	if hi == n {
		hi = n - 1
	}
	for i := lo; i < hi; i++ {
		s0 := ctx.ReadF64Range(src, (i-1)*n, i*n)
		s1 := ctx.ReadF64Range(src, i*n, (i+1)*n)
		s2 := ctx.ReadF64Range(src, (i+1)*n, (i+2)*n)
		d := ctx.WriteF64Range(dst, i*n, (i+1)*n)
		for j := 1; j < n-1; j++ {
			d[j] = 0.2 * (s1[j] + s1[j-1] + s1[j+1] + s0[j] + s2[j])
		}
		ctx.Compute(int64(5 * (n - 2)))
	}
}

// axpy adds alpha*src into dst over region r (an inter-grid operation).
func (ap *app) axpy(ctx *cool.Ctx, src, dst *cool.F64, r int, alpha float64) {
	n := ap.prm.N
	rows := n / ap.prm.Regions
	lo, hi := r*rows*n, (r+1)*rows*n
	s := ctx.ReadF64Range(src, lo, hi)
	d := ctx.WriteF64Range(dst, lo, hi)
	for i := range d {
		d[i] += alpha * s[i]
	}
	ctx.Compute(int64(2 * (hi - lo)))
}

// gridOp runs one whole-grid operation from grid src into grid dst: a
// waitfor over one region task per region, each with affinity for its
// destination region. The operation's grids stay on the app until the
// waitfor returns, so the bound bodies read them.
func (ap *app) gridOp(ctx *cool.Ctx, name string, src, dst int, body func(*cool.Ctx, int)) {
	ap.src, ap.dst, ap.dstGrid = ap.grids[src], ap.grids[dst], dst
	ctx.WaitFor(func() {
		ctx.SpawnN(name, ap.prm.Regions, body, ap.optFn)
	})
}

// laplaceN is region task r of the running stencil operation.
func (ap *app) laplaceN(c *cool.Ctx, r int) { ap.stencil(c, ap.src, ap.dst, r) }

// accumulateN is region task r of the running accumulation.
func (ap *app) accumulateN(c *cool.Ctx, r int) { ap.axpy(c, ap.src, ap.dst, r, 0.25) }

// regionOpts is region task r's affinity: its destination region.
func (ap *app) regionOpts(r int) []cool.SpawnOpt {
	ap.optBuf[0] = cool.OnObject(ap.regionAddr(ap.dstGrid, r))
	return ap.optBuf[:]
}

// Main executes the timestep pipeline: a chain of stencil ops through the
// grids followed by an inter-grid accumulation, all barrier-separated.
func (ap *app) Main(ctx *cool.Ctx) {
	for s := 0; s < ap.prm.Steps; s++ {
		for g := 1; g < ap.prm.Grids; g++ {
			ap.gridOp(ctx, "laplace", g-1, g, ap.laplaceFn)
		}
		ap.gridOp(ctx, "accumulate", ap.prm.Grids-1, 0, ap.accumulateFn)
	}
}

// Serial performs the identical computation in the main task.
func (ap *app) Serial(ctx *cool.Ctx) {
	for s := 0; s < ap.prm.Steps; s++ {
		for g := 1; g < ap.prm.Grids; g++ {
			for r := 0; r < ap.prm.Regions; r++ {
				ap.stencil(ctx, ap.grids[g-1], ap.grids[g], r)
			}
		}
		for r := 0; r < ap.prm.Regions; r++ {
			ap.axpy(ctx, ap.grids[ap.prm.Grids-1], ap.grids[0], r, 0.25)
		}
	}
}

// Finish digests every grid.
func (ap *app) Finish() (harness.Evidence, error) {
	var sum float64
	for _, g := range ap.grids {
		for _, v := range g.Data {
			sum += v
		}
	}
	return harness.Checksum(sum), nil
}
