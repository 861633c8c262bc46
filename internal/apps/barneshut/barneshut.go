// Package barneshut is the Barnes-Hut case study (paper §6.4): an N-body
// simulation that approximates far-field gravity through an octree of
// mass centroids. Each timestep rebuilds the tree, computes forces in
// parallel — one task per spatially contiguous body group, with affinity
// for the group's body block — and advances the bodies. Affinity
// scheduling keeps a group (and the subtree it mostly traverses) resident
// in one processor's cache across steps; distributing the body blocks
// makes the remaining misses local.
package barneshut

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// Variant indexes the program versions of Figure 16.
type Variant int

const (
	Base Variant = iota
	AffDistr
)

// Variants are the program versions in order.
var Variants = []harness.Variant{
	// Body blocks in one memory, hints ignored.
	{Name: "Base", IgnoreHints: true},
	// Blocks distributed, group tasks with object affinity.
	{Name: "Affinity+Distr", Distribute: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares barneshut to the registry.
var Program = harness.Program{
	Name:   "barneshut",
	Rows:   Variants,
	Served: int(AffDistr),
	Sizes:  map[string]int{"smoke": 128, "small": 256, "medium": 1024, "large": 2048},
	Sized: func(size int) harness.Workload {
		p := DefaultParams()
		if size > 0 {
			p.Bodies = size
		}
		return p
	},
}

// Params sizes the workload.
type Params struct {
	Bodies int
	Groups int
	Steps  int
	Theta  float64 // multipole acceptance criterion
	Seed   int64
}

// DefaultParams returns the standard workload.
func DefaultParams() Params { return Params{Bodies: 2048, Groups: 64, Steps: 3, Theta: 0.5, Seed: 11} }

func (p Params) normalize() (Params, error) {
	d := DefaultParams()
	if p.Bodies <= 0 {
		p.Bodies = d.Bodies
	}
	if p.Groups <= 0 {
		p.Groups = d.Groups
	}
	if p.Steps <= 0 {
		p.Steps = d.Steps
	}
	if p.Theta <= 0 {
		p.Theta = d.Theta
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.Bodies%p.Groups != 0 {
		return p, fmt.Errorf("barneshut: Bodies (%d) must be divisible by Groups (%d)", p.Bodies, p.Groups)
	}
	return p, nil
}

const (
	fieldsPerBody = 10 // x y z m vx vy vz ax ay az
	nodeStride    = 16 // floats per tree-node record (two cache lines)
)

// node is the host-side octree node; its hot data (centroid, mass, size)
// also lives in simulated memory for latency charging.
type node struct {
	cx, cy, cz float64 // cell center
	half       float64
	mass       float64
	mx, my, mz float64  // mass-weighted centroid accumulator
	body       int32    // body index for singleton leaves, -1 otherwise
	children   [8]int32 // node indices, 0 = none
	leaf       bool
}

// walkRec is one node of the threaded pre-order array the force walk
// reads front to back: what the walk needs of the node, and where its
// subtree ends.
type walkRec struct {
	mx, my, mz float64 // centroid
	mass       float64
	size2      float64 // (half*2)*(half*2), the cell size squared
	n          int32   // tree index, which addresses the node's record
	body       int32
	skip       int32 // index just past this node's subtree
	leaf       bool
}

type app struct {
	prm    Params
	groups []*cool.F64 // per-group body blocks
	tree   *cool.F64   // node records in simulated memory
	nodes  []node
	walk   []walkRec // the tree in pre-order, rebuilt by finalize each step

	// The group tasks' bodies and affinity, method values bound once,
	// when the app is made. The app, with its octree and walk, comes
	// from stash, so a step allocates nothing.
	forcesFn, advanceFn func(*cool.Ctx, int)
	optFn               func(int) []cool.SpawnOpt
	optBuf              [1]cool.SpawnOpt
}

// stash hands an app from a finished job to the next job of equal
// Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// body3 is a body's initial position.
type body3 struct{ x, y, z float64 }

// bodiesMemo holds the initial bodies of the most recently first-seen
// Params, a pure function of them: positions drawn from the seed, sorted
// into spatial groups.
var bodiesMemo = harness.Memo[Params, []body3]{Cap: 8}

// initialBodies returns prm's initial bodies, shared and read-only.
func initialBodies(prm Params) []body3 {
	return bodiesMemo.Get(prm, func() []body3 {
		rng := rand.New(rand.NewSource(prm.Seed))
		bodies := make([]body3, prm.Bodies)
		for i := range bodies {
			bodies[i] = body3{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		key := func(b body3) int {
			const g = 8
			return (int(b.x*g)<<8 | int(b.y*g)<<4) | int(b.z*g)
		}
		sort.SliceStable(bodies, func(i, j int) bool { return key(bodies[i]) < key(bodies[j]) })
		return bodies
	})
}

// Build validates the parameters and lays the bodies out as version v asks.
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
		ap = &app{prm: prm, groups: make([]*cool.F64, prm.Groups)}
		ap.forcesFn, ap.advanceFn = ap.groupForces, ap.groupAdvance
		ap.optFn = ap.groupOpt
	}
	per := prm.Bodies / prm.Groups

	// Deterministic initial conditions, sorted by a coarse space-filling
	// key so each group is spatially contiguous (as SPLASH does).
	bodies := initialBodies(prm)

	for g := range ap.groups {
		proc := 0
		if distribute {
			proc = g % rt.Processors()
		}
		arr := rt.NewF64Pages(per*fieldsPerBody, proc)
		for i := 0; i < per; i++ {
			b := bodies[g*per+i]
			d := arr.Data[i*fieldsPerBody:]
			d[0], d[1], d[2] = b.x, b.y, b.z
			d[3] = 1 / float64(prm.Bodies) // mass
		}
		ap.groups[g] = arr
	}
	ap.tree = rt.NewF64Pages(4*prm.Bodies*nodeStride, 0)
	if distribute {
		// Distribute the tree pages round-robin too: the tree is the
		// hottest shared object, and leaving it in one memory saturates
		// that module's bandwidth during the force phase.
		page := int64(4096)
		total := int64(ap.tree.Len()) * 8
		for off, i := int64(0), 0; off < total; off, i = off+page, i+1 {
			sz := page
			if off+sz > total {
				sz = total - off
			}
			rt.Migrate(ap.tree.Base+off, sz, i%rt.Processors())
		}
	}
	return ap
}

// body returns the group array and element offset of body i.
func (ap *app) body(i int) (*cool.F64, int) {
	per := ap.prm.Bodies / ap.prm.Groups
	return ap.groups[i/per], (i % per) * fieldsPerBody
}

// buildTree inserts every body into a fresh octree (run in one task; the
// paper's tree build is also a serial phase at these problem sizes).
func (ap *app) buildTree(ctx *cool.Ctx) {
	if ap.nodes == nil {
		// Uniform bodies build about 1.5 nodes per body, so the first
		// step's tree seldom regrows the slice.
		ap.nodes = make([]node, 0, 2*ap.prm.Bodies)
	}
	ap.nodes = ap.nodes[:0]
	ap.newNode(0.5, 0.5, 0.5, 0.5)
	for i := 0; i < ap.prm.Bodies; i++ {
		arr, off := ap.body(i)
		ctx.Access(arr.Addr(off), 32, false) // position + mass
		ap.insert(ctx, 0, i, arr.Data[off], arr.Data[off+1], arr.Data[off+2], arr.Data[off+3], 0)
	}
	if ap.walk == nil {
		// Made once per app: the later steps' trees differ from the
		// first by a few nodes, which the slack absorbs.
		ap.walk = make([]walkRec, 0, len(ap.nodes)+len(ap.nodes)/8)
	}
	ap.walk = ap.walk[:0]
	ap.finalize(ctx, 0)
}

// newNode appends a leaf. The tree's simulated records hold
// ap.tree.Len()/nodeStride nodes; bodies packed closer than the tree
// can separate build a chain of cells that could outgrow them, and
// then the build fails rather than charge references past the array.
func (ap *app) newNode(cx, cy, cz, half float64) int32 {
	if budget := ap.tree.Len() / nodeStride; len(ap.nodes) == budget {
		panic(fmt.Sprintf("barneshut: the octree of %d bodies needs more than its %d node records", ap.prm.Bodies, budget))
	}
	ap.nodes = append(ap.nodes, node{cx: cx, cy: cy, cz: cz, half: half, body: -1, leaf: true})
	return int32(len(ap.nodes) - 1)
}

func (ap *app) insert(ctx *cool.Ctx, n int32, bi int, x, y, z, m float64, depth int) {
	ctx.Access(ap.tree.Addr(int(n)*nodeStride), 64, true)
	ctx.Compute(12)
	nd := &ap.nodes[n]
	nd.mass += m
	nd.mx += m * x
	nd.my += m * y
	nd.mz += m * z
	if nd.leaf {
		if nd.body == -1 {
			nd.body = int32(bi)
			return
		}
		if depth > 60 {
			// Coincident bodies: keep only aggregate mass.
			return
		}
		// Split: push the resident body down, then continue.
		old := int(nd.body)
		nd.body = -1
		nd.leaf = false
		arr, off := ap.body(old)
		ox, oy, oz, om := arr.Data[off], arr.Data[off+1], arr.Data[off+2], arr.Data[off+3]
		ap.insertChild(ctx, n, old, ox, oy, oz, om, depth)
	}
	ap.insertChild(ctx, n, bi, x, y, z, m, depth)
}

func (ap *app) insertChild(ctx *cool.Ctx, n int32, bi int, x, y, z, m float64, depth int) {
	nd := &ap.nodes[n]
	oct := 0
	if x >= nd.cx {
		oct |= 1
	}
	if y >= nd.cy {
		oct |= 2
	}
	if z >= nd.cz {
		oct |= 4
	}
	c := nd.children[oct]
	if c == 0 {
		h := nd.half / 2
		cx, cy, cz := nd.cx-h, nd.cy-h, nd.cz-h
		if oct&1 != 0 {
			cx += nd.half
		}
		if oct&2 != 0 {
			cy += nd.half
		}
		if oct&4 != 0 {
			cz += nd.half
		}
		c = ap.newNode(cx, cy, cz, h)
		ap.nodes[n].children[oct] = c
	}
	// Note: ap.nodes may have been reallocated by newNode; re-index.
	ap.insert(ctx, c, bi, x, y, z, m, depth+1)
}

// finalize converts centroid accumulators into centroids, writes the
// records out to simulated memory and appends the threaded pre-order
// walk: each node's record, then its children's subtrees in index
// order, the order force visits them.
func (ap *app) finalize(ctx *cool.Ctx, n int32) {
	nd := &ap.nodes[n]
	if nd.mass > 0 {
		nd.mx /= nd.mass
		nd.my /= nd.mass
		nd.mz /= nd.mass
	}
	ctx.Access(ap.tree.Addr(int(n)*nodeStride), 64, true)
	ctx.Compute(6)
	i := len(ap.walk)
	ap.walk = append(ap.walk, walkRec{
		mx: nd.mx, my: nd.my, mz: nd.mz, mass: nd.mass,
		size2: (nd.half * 2) * (nd.half * 2),
		n:     n, body: nd.body, leaf: nd.leaf,
	})
	if !nd.leaf {
		for _, c := range nd.children {
			if c != 0 {
				ap.finalize(ctx, c)
			}
		}
	}
	ap.walk[i].skip = int32(len(ap.walk))
}

// force accumulates the acceleration on body bi by traversing the tree.
func (ap *app) force(ctx *cool.Ctx, bi int) (float64, float64, float64) {
	arr, off := ap.body(bi)
	x, y, z := arr.Data[off], arr.Data[off+1], arr.Data[off+2]
	const eps2 = 1e-4
	var ax, ay, az float64
	theta2 := ap.prm.Theta * ap.prm.Theta
	walk := ap.walk
	self := int32(bi)

	// Pre-order walk over the threaded array: the next node is the one
	// after, unless an accepted cell's subtree is skipped. A leaf's skip
	// is the next index, so only an opened cell steps into its subtree.
	for i := 0; i < len(walk); {
		w := &walk[i]
		ctx.Access(ap.tree.Addr(int(w.n)*nodeStride), 64, false)
		dx, dy, dz := w.mx-x, w.my-y, w.mz-z
		d2 := dx*dx + dy*dy + dz*dz + eps2
		ctx.Compute(16)
		if w.leaf {
			i++
			if w.body == self || w.mass == 0 {
				continue
			}
		} else if !(w.size2 < theta2*d2) {
			// Too close to approximate: open the cell.
			i++
			continue
		} else {
			i = int(w.skip)
		}
		inv := 1 / (d2 * math.Sqrt(d2))
		ax += w.mass * dx * inv
		ay += w.mass * dy * inv
		az += w.mass * dz * inv
		ctx.Compute(12)
	}
	return ax, ay, az
}

// groupForces computes accelerations for one body group.
func (ap *app) groupForces(ctx *cool.Ctx, g int) {
	per := ap.prm.Bodies / ap.prm.Groups
	arr := ap.groups[g]
	for i := 0; i < per; i++ {
		bi := g*per + i
		off := i * fieldsPerBody
		ctx.Access(arr.Addr(off), 32, false)
		ax, ay, az := ap.force(ctx, bi)
		arr.Data[off+7], arr.Data[off+8], arr.Data[off+9] = ax, ay, az
		ctx.Access(arr.Addr(off+7), 24, true)
	}
}

// groupAdvance integrates one group's velocities and positions.
func (ap *app) groupAdvance(ctx *cool.Ctx, g int) {
	const dt = 1e-3
	per := ap.prm.Bodies / ap.prm.Groups
	arr := ap.groups[g]
	for i := 0; i < per; i++ {
		off := i * fieldsPerBody
		d := arr.Data[off:]
		ctx.Access(arr.Addr(off), 80, true)
		d[4] += dt * d[7]
		d[5] += dt * d[8]
		d[6] += dt * d[9]
		d[0] += dt * d[4]
		d[1] += dt * d[5]
		d[2] += dt * d[6]
		ctx.Compute(12)
	}
}

// step runs one timestep: serial tree build, then parallel force and
// advance phases over the body groups.
func (ap *app) step(ctx *cool.Ctx, parallel bool) {
	ap.buildTree(ctx)
	if !parallel {
		for g := 0; g < ap.prm.Groups; g++ {
			ap.groupForces(ctx, g)
		}
		for g := 0; g < ap.prm.Groups; g++ {
			ap.groupAdvance(ctx, g)
		}
		return
	}
	ctx.WaitFor(func() {
		ctx.SpawnN("forces", ap.prm.Groups, ap.forcesFn, ap.optFn)
	})
	ctx.WaitFor(func() {
		ctx.SpawnN("advance", ap.prm.Groups, ap.advanceFn, ap.optFn)
	})
}

// groupOpt is group task g's affinity: its body block.
func (ap *app) groupOpt(g int) []cool.SpawnOpt {
	ap.optBuf[0] = cool.OnObject(ap.groups[g].Base)
	return ap.optBuf[:]
}

// Main runs the timesteps with parallel force and advance phases.
func (ap *app) Main(ctx *cool.Ctx) {
	for s := 0; s < ap.prm.Steps; s++ {
		ap.step(ctx, true)
	}
}

// Serial executes the identical computation in the main task.
func (ap *app) Serial(ctx *cool.Ctx) {
	for s := 0; s < ap.prm.Steps; s++ {
		ap.step(ctx, false)
	}
}

// Finish rejects non-finite body data and digests the final positions.
func (ap *app) Finish() (harness.Evidence, error) {
	var s float64
	for gi, g := range ap.groups {
		for _, v := range g.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("barneshut: non-finite body data in group %d", gi)
			}
		}
		for i := 0; i < g.Len(); i += fieldsPerBody {
			s += g.Data[i] + 2*g.Data[i+1] + 3*g.Data[i+2]
		}
	}
	return harness.Checksum(s), nil
}

// Release returns the app to the stash, dropping the runtime's handles.
func (ap *app) Release() {
	clear(ap.groups)
	ap.tree = nil
	stash.Put(ap.prm, ap)
}
