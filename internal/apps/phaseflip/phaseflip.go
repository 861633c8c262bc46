// Package phaseflip is a synthetic two-phase workload whose best
// stealing policy flips mid-run — the case for the paper's cluster-only
// stealing being "a runtime flag that can be dynamically manipulated by
// the programmer" (§6.3, Ctx.SetClusterStealingOnly).
//
// Phase A runs a few serial object-bound chains, one per cluster-0
// server: each link spawns its successor at the START of its body, so
// the successor sits queued behind its running predecessor as the
// server's only queued task. A single queued object-bound task is
// refused by the paper's reluctant-stealing rule, so the chains are
// pure probe bait: under flat (cross-cluster) stealing every chain
// enqueue wakes idle processors machine-wide, and each woken thief is
// charged a failed remote-steal probe per chain server. Alongside the
// chains, the remaining processors run serial ping-pong pairs — each
// pair bounces one object-bound task between two neighbouring servers,
// so one side is always briefly idle waiting for the bounce. Under
// flat stealing that idle side is exactly who the chain wakes reach
// (lowest IDs first), so when its own link arrives the processor is
// still mid-probe-burst with its clock pushed ahead, and the link
// starts late. The slip accrues every bounce and the phase barrier
// waits for the pairs, so flat stealing stretches phase A's makespan.
// Cluster-restricted stealing confines woken processors to their own
// (empty or cheap-to-probe) cluster, so the pairs run clean and
// cluster-only wins phase A.
//
// Phase B floods the cluster-0 servers with a deep backlog of
// object-bound tasks. Backlogged object-bound work IS reluctantly
// stealable, so flat stealing spreads it across the whole machine,
// while cluster-only strands every worker outside cluster 0 — flat
// wins phase B by roughly the cluster count. No static policy wins
// both phases. The Phases+Switch variant sets the flag itself: on
// before each phase A, off before each phase B, and beats either
// static arm (TestPhaseSwitchBeatsStaticArms).
package phaseflip

import (
	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// Variant indexes the affinity ablation's points.
type Variant int

const (
	Base Variant = iota
	Phases
	Switch
)

// Variants are the ablation points in order.
var Variants = []harness.Variant{
	// Hints ignored — tasks placed round-robin, no phase contrast.
	{Name: "Base", IgnoreHints: true},
	// The object-affinity version whose two phases want opposite
	// stealing policies.
	{Name: "Phases"},
	// Phases with the program flipping cluster-only stealing itself:
	// on for each phase A, off for each phase B.
	{Name: "Phases+Switch"},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares phaseflip to the registry.
var Program = harness.Program{
	Name:   "phaseflip",
	Rows:   Variants,
	Served: int(Phases),
	Sizes:  map[string]int{"smoke": 60, "small": 120, "medium": 300, "large": 600},
	Sized: func(size int) harness.Workload {
		p := DefaultParams()
		if size > 0 {
			p.Steps = size
			p.Wave = 0 // re-derived from Steps by normalize
		}
		return p
	},
}

// Work per task body, in simulated cycles. A chain step and a
// ping-pong link are the same length; each pair bounces Steps times,
// so the pairs outlast the chains and carry the accumulated slip into
// the phase barrier. A wave task is long enough that a one-time
// successful steal amortizes.
const (
	chainWork = 400
	pingWork  = 400
	waveWork  = 1000
)

// Phase A's fixed shapes: chains fill one DASH cluster's servers, and
// the ping-pong pairs cover the other twelve processors of the
// reference 16-processor machine. Both are independent of the actual
// processor count (placements wrap), so the work — and the checksum —
// is identical across machine sizes and against the serial reference.
const (
	chainCount = 4
	pairCount  = 6
)

// Params sizes the workload. No knob depends on the processor count.
type Params struct {
	Steps  int // phase A: links per chain (each pair bounces Steps times)
	Wave   int // phase B: total backlogged tasks
	Rounds int // A/B pairs, so the policy must flip repeatedly
}

// DefaultParams returns the standard workload.
func DefaultParams() Params { return Params{Steps: 600, Wave: 768, Rounds: 2} }

func (p Params) normalize() Params {
	d := DefaultParams()
	if p.Steps <= 0 {
		p.Steps = d.Steps
	}
	if p.Wave <= 0 {
		p.Wave = p.Steps
		if p.Wave < 8 {
			p.Wave = 8
		}
	}
	if p.Rounds <= 0 {
		p.Rounds = d.Rounds
	}
	return p
}

// turns is how many times each ping-pong pair bounces per round.
func (p Params) turns() int {
	t := p.Steps
	if t < 1 {
		t = 1
	}
	return t
}

type app struct {
	prm  Params
	v    Variant     // Phases and Switch pass the object-affinity hints, Base none
	objs []*cool.I64 // one accumulator cell per chain, homed on its server
	pong []*cool.F64 // two cells per pair (flat: pair*2+side), each homed on its side
	wave *cool.F64   // one cell per wave task, disjoint writes

	// The task records. A chain or a pair has one live link at a time,
	// so each has one record: a link reads it, rewrites it for its
	// successor and only then spawns the successor. The bodies are
	// method values bound once, when the app is made, and the app comes
	// from stash, so no link allocates.
	chains  [chainCount]*link
	pairs   [pairCount]*link
	round   int // the running round, for the wave tasks
	waveFn  func(*cool.Ctx, int)
	waveOpt func(int) []cool.SpawnOpt
	optBuf  [1]cool.SpawnOpt
}

// link is the record of a chain's or a ping-pong pair's live task: link
// step of chain id, or bounce step of pair id, in round.
type link struct {
	ap              *app
	id, step, round int
	run             func(*cool.Ctx)
}

// stash hands an app's records from a finished job to the next job of
// equal Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// newApp makes an app for prm and binds its task bodies.
func newApp(prm Params) *app {
	ap := &app{prm: prm, objs: make([]*cool.I64, chainCount), pong: make([]*cool.F64, 2*pairCount)}
	for c := range ap.chains {
		l := &link{ap: ap, id: c}
		l.run = l.chainStep
		ap.chains[c] = l
	}
	for p := range ap.pairs {
		l := &link{ap: ap, id: p}
		l.run = l.pingStep
		ap.pairs[p] = l
	}
	ap.waveFn = ap.waveN
	ap.waveOpt = ap.waveOpts
	return ap
}

// Build allocates the chain accumulators (one per cluster-0 server),
// the ping-pong cells (pair p bounces between processors 4+2p and
// 5+2p), and the wave buffer. All placements wrap modulo the machine
// size, so on smaller machines the shapes share servers while the
// data writes — and so the checksum — stay identical.
func (p Params) Build(rt *cool.Runtime, v int, _ any) (harness.Instance, error) {
	prm := p.normalize()
	ap, ok := stash.Take(prm)
	if !ok {
		ap = newApp(prm)
	}
	ap.v = Variant(v)
	for c := range ap.objs {
		ap.objs[c] = rt.NewI64Pages(1, c%rt.Processors())
	}
	for i := range ap.pong {
		ap.pong[i] = rt.NewF64Pages(1, (chainCount+i)%rt.Processors())
	}
	ap.wave = rt.NewF64Pages(prm.Wave, 0)
	return ap, nil
}

// Release returns the records to the stash, dropping the runtime's
// handles.
func (ap *app) Release() {
	clear(ap.objs)
	clear(ap.pong)
	ap.wave = nil
	stash.Put(ap.prm, ap)
}

// chainStep is one phase-A link: spawn the successor first (it parks
// as the server's lone queued task for this whole body), then work.
func (l *link) chainStep(ctx *cool.Ctx) {
	ap, c, step, round := l.ap, l.id, l.step, l.round
	if step+1 < ap.prm.Steps {
		l.step = step + 1
		ap.spawnLink(ctx, l)
	}
	ap.chainUpdate(ctx, c, step, round)
	ctx.Compute(chainWork)
}

// chainUpdate adds one link's delta to its chain cell. A stolen successor
// can run its own update while this link still runs, so the add is
// atomic on the native backend; the simulated charge is the cell's 8-byte
// write. The deltas are small integers, so the sum is exact in any order.
func (ap *app) chainUpdate(ctx *cool.Ctx, c, step, round int) {
	ctx.Access(ap.objs[c].Base, 8, true)
	ctx.AddI64(ap.objs[c], 0, int64((step*31+c*17+round)%13)-6)
}

// spawnLink spawns the chain link l describes.
func (ap *app) spawnLink(ctx *cool.Ctx, l *link) {
	if ap.v != Base {
		ctx.Spawn("chain", l.run, cool.ObjectAffinity(ap.objs[l.id].Base))
		return
	}
	ctx.Spawn("chain", l.run)
}

// pingStep is one ping-pong bounce: work against this side's cell,
// then spawn the next bounce on the partner side at the END of the
// body, so the partner's server sits empty — and its processor idle,
// soaking up chain wakes — for the whole duration of this link.
func (l *link) pingStep(ctx *cool.Ctx) {
	ap, pair, turn, round := l.ap, l.id, l.step, l.round
	d := ctx.WriteF64Range(ap.pong[pair*2+turn%2], 0, 1)
	d[0] += float64((turn*19+pair*7+round)%17) - 8
	ctx.Compute(pingWork)
	if turn+1 < ap.prm.turns() {
		l.step = turn + 1
		ap.spawnBounce(ctx, l)
	}
}

// spawnBounce spawns the ping-pong bounce l describes.
func (ap *app) spawnBounce(ctx *cool.Ctx, l *link) {
	if ap.v != Base {
		ctx.Spawn("ping", l.run, cool.ObjectAffinity(ap.pong[l.id*2+l.step%2].Base))
		return
	}
	ctx.Spawn("ping", l.run)
}

// waveTask is one phase-B body: a disjoint write plus work.
func (ap *app) waveTask(ctx *cool.Ctx, i, round int) {
	d := ctx.WriteF64Range(ap.wave, i, i+1)
	d[0] += float64((i*7+round*3)%11) - 5
	ctx.Compute(waveWork)
}

// waveN is wave task i of the running round.
func (ap *app) waveN(ctx *cool.Ctx, i int) { ap.waveTask(ctx, i, ap.round) }

// waveOpts is wave task i's affinity: its chain's cell.
func (ap *app) waveOpts(i int) []cool.SpawnOpt {
	if ap.v == Base {
		return nil
	}
	ap.optBuf[0] = cool.ObjectAffinity(ap.objs[i%chainCount].Base)
	return ap.optBuf[:]
}

// Main alternates the two phases. Each phase is a barrier, so no task
// of one phase runs under the other phase's stealing policy.
func (ap *app) Main(ctx *cool.Ctx) {
	for round := 0; round < ap.prm.Rounds; round++ {
		if ap.v == Switch {
			ctx.SetClusterStealingOnly(true)
		}
		// Phase A: one chain head per cluster-0 server, plus the
		// ping-pong pairs on the rest of the machine.
		ctx.WaitFor(func() {
			for _, l := range ap.chains {
				l.step, l.round = 0, round
				ap.spawnLink(ctx, l)
			}
			for _, l := range ap.pairs {
				l.step, l.round = 0, round
				ap.spawnBounce(ctx, l)
			}
		})
		if ap.v == Switch {
			ctx.SetClusterStealingOnly(false)
		}
		// Phase B: a deep object-bound backlog on the chain servers.
		ap.round = round
		ctx.WaitFor(func() {
			ctx.SpawnN("wave", ap.prm.Wave, ap.waveFn, ap.waveOpt)
		})
	}
}

// Serial performs the identical work in the main task.
func (ap *app) Serial(ctx *cool.Ctx) {
	for round := 0; round < ap.prm.Rounds; round++ {
		for c := 0; c < chainCount; c++ {
			for step := 0; step < ap.prm.Steps; step++ {
				ap.chainUpdate(ctx, c, step, round)
				ctx.Compute(chainWork)
			}
		}
		for pair := 0; pair < pairCount; pair++ {
			for turn := 0; turn < ap.prm.turns(); turn++ {
				d := ctx.WriteF64Range(ap.pong[pair*2+turn%2], 0, 1)
				d[0] += float64((turn*19+pair*7+round)%17) - 8
				ctx.Compute(pingWork)
			}
		}
		for i := 0; i < ap.prm.Wave; i++ {
			ap.waveTask(ctx, i, round)
		}
	}
}

// Finish digests every cell.
func (ap *app) Finish() (harness.Evidence, error) {
	var s float64
	for c, o := range ap.objs {
		s += float64(o.Data[0]) * float64(c+1)
	}
	for i, o := range ap.pong {
		s += o.Data[0] * float64(i%5+2)
	}
	for i, v := range ap.wave.Data {
		s += v * float64(i%23+1)
	}
	return harness.Checksum(s), nil
}
