// Package gauss is the paper's running Gaussian elimination example
// (Figure 3): column-oriented elimination where update(dst, src)
// subtracts a multiple of a finished source column from a destination
// column. The schedule the paper derives — memory locality on the
// destination column (OBJECT affinity, columns distributed round-robin)
// and cache locality on the source column (TASK affinity, updates with a
// common source executed back to back) — is expressed with the
// affinity(src, TASK) + affinity(dst, OBJECT) pair, exactly as in the
// figure.
package gauss

import (
	"fmt"
	"math"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// Variant indexes the affinity ablation's points.
type Variant int

const (
	Base Variant = iota
	ObjectOnly
	TaskObject
)

// Variants are the ablation points in order.
var Variants = []harness.Variant{
	// Hints ignored, columns in one memory.
	{Name: "Base", IgnoreHints: true},
	// OBJECT affinity on the destination column only.
	{Name: "Object", Distribute: true},
	// The paper's full hint pair (Figure 3).
	{Name: "Task+Object", Distribute: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares gauss to the registry.
var Program = harness.Program{
	Name:   "gauss",
	Rows:   Variants,
	Served: int(TaskObject),
	Sizes:  map[string]int{"smoke": 48, "small": 48, "medium": 96, "large": 192},
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
	N int // matrix dimension
}

// DefaultParams returns the standard workload.
func DefaultParams() Params { return Params{N: 256} }

type app struct {
	prm  Params
	v    Variant // which hints Main passes
	cols []*cool.F64

	// The running pivot step and the bodies of its update tasks: method
	// values bound once, when the app is made. The app comes from stash,
	// so the steps of a job allocate nothing.
	k        int
	updateFn func(*cool.Ctx, int)
	optFn    func(int) []cool.SpawnOpt
	optBuf   [2]cool.SpawnOpt
}

// stash hands an app from a finished job to the next job of equal
// Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// Build lays the columns out as version v asks.
func (p Params) Build(rt *cool.Runtime, v int, _ any) (harness.Instance, error) {
	if p.N <= 0 {
		p.N = DefaultParams().N
	}
	ap := build(rt, p, Variants[v].Distribute)
	ap.v = Variant(v)
	return ap, nil
}

func build(rt *cool.Runtime, prm Params, distribute bool) *app {
	ap, ok := stash.Take(prm)
	if !ok {
		ap = &app{prm: prm, cols: make([]*cool.F64, prm.N)}
		ap.updateFn = ap.updateN
		ap.optFn = ap.updateOpts
	}
	for j := range ap.cols {
		proc := 0
		if distribute {
			proc = j % rt.Processors()
		}
		col := rt.NewF64Pages(prm.N, proc)
		for i := 0; i < prm.N; i++ {
			if i == j {
				col.Data[i] = float64(prm.N)
			} else {
				col.Data[i] = float64((i*31+j*17)%7) - 3
			}
		}
		ap.cols[j] = col
	}
	return ap
}

// Release returns the app to the stash, dropping the runtime's handles.
func (ap *app) Release() {
	clear(ap.cols)
	stash.Put(ap.prm, ap)
}

// update eliminates row k of destination column j using source column k,
// recording the multiplier in place (forming L below the diagonal).
func (ap *app) update(ctx *cool.Ctx, j, k int) {
	n := ap.prm.N
	src := ap.cols[k]
	dst := ap.cols[j]
	s := ctx.ReadF64Range(src, k, n)
	d := ctx.WriteF64Range(dst, k, n)
	m := d[0] / s[0]
	d[0] = m
	for i := 1; i < len(d); i++ {
		d[i] -= m * s[i]
	}
	ctx.Compute(int64(2 * (n - k)))
}

// updateN is update task i of the running step: column k+1+i.
func (ap *app) updateN(c *cool.Ctx, i int) { ap.update(c, ap.k+1+i, ap.k) }

// updateOpts is update task i's affinity, as the version asks.
func (ap *app) updateOpts(i int) []cool.SpawnOpt {
	dst := ap.cols[ap.k+1+i]
	switch ap.v {
	case ObjectOnly:
		ap.optBuf[0] = cool.ObjectAffinity(dst.Base)
		return ap.optBuf[:1]
	case TaskObject:
		ap.optBuf[0] = cool.TaskAffinity(ap.cols[ap.k].Base)
		ap.optBuf[1] = cool.ObjectAffinity(dst.Base)
		return ap.optBuf[:]
	}
	return nil
}

// Main performs the elimination: one barrier-separated step per pivot
// column, with an update task per remaining column.
func (ap *app) Main(ctx *cool.Ctx) {
	n := ap.prm.N
	for k := 0; k < n-1; k++ {
		ap.k = k
		ctx.WaitFor(func() {
			ctx.SpawnN("update", n-1-k, ap.updateFn, ap.optFn)
		})
	}
}

// Serial performs the identical elimination in the main task.
func (ap *app) Serial(ctx *cool.Ctx) {
	for k := 0; k < ap.prm.N-1; k++ {
		for j := k + 1; j < ap.prm.N; j++ {
			ap.update(ctx, j, k)
		}
	}
}

// Finish rejects a non-finite factor and digests the rest.
func (ap *app) Finish() (harness.Evidence, error) {
	var s float64
	for j, col := range ap.cols {
		for i, v := range col.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("gauss: non-finite value in column %d", j)
			}
			s += v * float64((i+2*j)%17)
		}
	}
	return harness.Checksum(s), nil
}
