// Package pancho is the Panel Cholesky case study (paper §6.3): parallel
// sparse Cholesky factorization where columns with identical structure
// form panels (relaxed supernodes stored as dense trapezoids), each panel
// is updated — under a per-panel monitor — by ready panels to its left,
// and a panel that has received all of its updates becomes ready, is
// completed, and is used to update panels to its right.
//
// The COOL expression follows Figure 13: UpdatePanel is a parallel mutex
// function with affinity(src, TASK) and affinity(this, OBJECT);
// CompletePanel is a parallel function with default affinity for its
// panel; main distributes panels round-robin across the processors'
// memories and waits for the update DAG to drain inside one waitfor.
package pancho

import (
	"fmt"
	"math"
	"sort"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/sparse"
)

// Variant selects the program version of Figure 14.
type Variant int

const (
	// Base: all panels in one memory, scheduling ignores hints.
	Base Variant = iota
	// Distr: panels distributed round-robin, scheduling ignores hints.
	Distr
	// DistrAff: distribution plus affinity scheduling.
	DistrAff
	// DistrAffCluster: DistrAff with stealing restricted to the cluster.
	DistrAffCluster
)

// String names the variant as in the paper's figure legend.
func (v Variant) String() string {
	switch v {
	case Base:
		return "Base"
	case Distr:
		return "Distr"
	case DistrAff:
		return "Distr+Aff"
	case DistrAffCluster:
		return "Distr+Aff+ClusterStealing"
	}
	return "unknown"
}

// Variants lists the figure's program versions in order.
var Variants = []Variant{Base, Distr, DistrAff, DistrAffCluster}

// Params sizes the workload.
type Params struct {
	Grid      int     // k: factor the k×k grid Laplacian (nested dissection order)
	MaxPanel  int     // panel width cap
	RelaxFill float64 // amalgamation padding budget (fraction of true entries)
}

// DefaultParams returns the experiment's standard workload: the 96×96
// grid Laplacian (n = 9216) in nested dissection order with panels of up
// to 12 columns.
func DefaultParams() Params { return Params{Grid: 96, MaxPanel: 12, RelaxFill: 0.8} }

func (p Params) normalize() Params {
	d := DefaultParams()
	if p.Grid <= 0 {
		p.Grid = d.Grid
	}
	if p.MaxPanel <= 0 {
		p.MaxPanel = d.MaxPanel
	}
	if p.RelaxFill <= 0 {
		p.RelaxFill = d.RelaxFill
	}
	return p
}

// Result carries timing, counters and correctness evidence for one run.
type Result struct {
	Cycles   int64
	Report   cool.Report
	Residual float64 // ‖LLᵀx − Ax‖∞ / ‖Ax‖∞
	MaxDiff  float64 // vs the serial reference factor
	Panels   int
	Tasks    int64
}

// app is the per-run state shared by the tasks.
type app struct {
	rt        *cool.Runtime
	ps        *sparse.PanelSet
	dsts      [][]int32
	remaining []int32
	arrs      []*cool.F64 // panel trapezoid values in simulated memory
	mons      []*cool.Monitor
}

// Prep is the reusable analyze-phase output for one workload: the
// assembled matrix, its symbolic factorization and panel partition, the
// update DAG, and the serial reference factor the run verifies against.
// All of it is a pure function of Params and is read-only during a run
// (the per-run update countdown is copied out), so one Prep can back
// any number of factorizations — the split real sparse solvers make
// between analyze and factorize. A serving layer that keeps a space's
// Prep resident turns routing affinity into avoided work.
type Prep struct {
	prm  Params
	a    *sparse.Sym
	ps   *sparse.PanelSet
	dsts [][]int32
	nupd []int32
	ref  *sparse.Factor
}

// Params reports the (normalized) workload this Prep was built for.
func (p *Prep) Params() Params { return p.prm }

// Prepare runs the analyze phase: everything a factorization needs that
// depends only on the workload parameters, not on the runtime.
func Prepare(prm Params) (*Prep, error) {
	prm = prm.normalize()
	a := sparse.GridLaplacianND(prm.Grid)
	symb := sparse.Analyze(a)
	ps := sparse.BuildPanelSet(symb, prm.MaxPanel, prm.RelaxFill)
	dsts, nupd := ps.Deps()
	ref, err := sparse.Cholesky(a, ps.S)
	if err != nil {
		return nil, fmt.Errorf("pancho prepare: %w", err)
	}
	return &Prep{prm: prm, a: a, ps: ps, dsts: dsts, nupd: nupd, ref: ref}, nil
}

// build prepares the matrix, panel partition and simulated-memory layout.
func build(rt *cool.Runtime, prm Params, distribute bool) (*app, *sparse.Sym) {
	prep, err := Prepare(prm)
	if err != nil {
		panic(err) // Cholesky of the grid Laplacian cannot fail: it is SPD
	}
	return buildPrep(rt, prep, distribute), prep.a
}

// buildPrep lays a prepared workload out in the runtime's memory. The
// Prep is shared and stays read-only: only the update countdown is
// copied per run.
func buildPrep(rt *cool.Runtime, prep *Prep, distribute bool) *app {
	ps := prep.ps
	ap := &app{
		rt:        rt,
		ps:        ps,
		dsts:      prep.dsts,
		remaining: append([]int32(nil), prep.nupd...),
		arrs:      make([]*cool.F64, len(ps.Panels)),
		mons:      make([]*cool.Monitor, len(ps.Panels)),
	}
	for _, p := range ps.Panels {
		size := int(ps.ColPtr[p.End] - ps.ColPtr[p.Start])
		proc := 0
		if distribute {
			proc = p.ID % rt.Processors()
		}
		arr := rt.NewF64Pages(size, proc)
		ap.arrs[p.ID] = arr
		ap.mons[p.ID] = rt.NewMonitor(arr.Base)
	}
	// Scatter A's values onto the stored structure (setup, uncharged).
	a := prep.a
	for j := 0; j < a.N; j++ {
		arows, avals := a.Col(j)
		pid := int(ps.Owner[j])
		p := ps.Panels[pid]
		off := int(ps.ColPtr[j] - ps.PanelOff(p))
		for q, r := range arows {
			pos := ps.RowPos(p, j, r)
			if pos < 0 {
				panic("pancho: A entry outside stored structure")
			}
			ap.arrs[pid].Data[off+pos] = avals[q]
		}
	}
	return ap
}

// colOff returns the offset of column j within its panel's value array.
func (ap *app) colOff(pid, j int) int {
	return int(ap.ps.ColPtr[j] - ap.ps.PanelOff(ap.ps.Panels[pid]))
}

// complete performs the internal factorization of panel d: cdiv each
// column and apply its updates to the panel's later columns. Thanks to
// the trapezoid layout the intra-panel update is a dense AXPY.
func (ap *app) complete(ctx *cool.Ctx, d int) {
	p := ap.ps.Panels[d]
	arr := ap.arrs[d]
	for k := p.Start; k < p.End; k++ {
		off := ap.colOff(d, k)
		n := ap.ps.ColLen(k)
		col := arr.Data[off : off+n]
		diag := col[0]
		if diag <= 0 || math.IsNaN(diag) {
			panic(fmt.Sprintf("pancho: lost positive definiteness at column %d (pivot %g)", k, diag))
		}
		diag = math.Sqrt(diag)
		col[0] = diag
		for i := 1; i < n; i++ {
			col[i] /= diag
		}
		ctx.Access(arr.Addr(off), int64(n)*8, true)
		ctx.Compute(int64(n) + 12) // divides plus the square root

		for j := k + 1; j < p.End; j++ {
			mult := col[j-k]
			src := col[j-k:]
			doff := ap.colOff(d, j)
			dst := arr.Data[doff : doff+len(src)]
			for i := range src {
				dst[i] -= mult * src[i]
			}
			ctx.Access(arr.Addr(doff), int64(len(dst))*8, true)
			ctx.Compute(int64(2 * len(src)))
		}
	}
}

// applyUpdate performs every cmod from completed panel src into panel
// dst: for each source column, for each of its stored rows j landing in
// dst, subtract the scaled source suffix from dst's column j.
func (ap *app) applyUpdate(ctx *cool.Ctx, dst, src int) {
	ps := ap.ps
	sp, dp := ps.Panels[src], ps.Panels[dst]
	sBelow := ps.Below[src]
	dBelow := ps.Below[dst]
	sArr, dArr := ap.arrs[src], ap.arrs[dst]

	lo := sort.Search(len(sBelow), func(i int) bool { return int(sBelow[i]) >= dp.Start })
	hi := sort.Search(len(sBelow), func(i int) bool { return int(sBelow[i]) >= dp.End })
	if lo == hi {
		return
	}
	for k := sp.Start; k < sp.End; k++ {
		off := ap.colOff(src, k)
		belowStart := sp.End - k // position of sBelow[0] in column k
		// Read the below segment of the source column once per column.
		ctx.Access(sArr.Addr(off+belowStart+lo), int64(len(sBelow)-lo)*8, false)
		for t := lo; t < hi; t++ {
			j := int(sBelow[t])
			mult := sArr.Data[off+belowStart+t]
			doff := ap.colOff(dst, j)
			// Rows still inside dst's column range: direct positions.
			u := t
			for ; u < hi; u++ {
				r := int(sBelow[u])
				dArr.Data[doff+r-j] -= mult * sArr.Data[off+belowStart+u]
			}
			// Rows below dst's panel: merge into dst's Below (skipping
			// padded source rows dst does not store; their value is 0).
			base2 := doff + (dp.End - j)
			q := 0
			last := base2
			for ; u < len(sBelow); u++ {
				r := sBelow[u]
				for q < len(dBelow) && dBelow[q] < r {
					q++
				}
				if q < len(dBelow) && dBelow[q] == r {
					dArr.Data[base2+q] -= mult * sArr.Data[off+belowStart+u]
					last = base2 + q
				}
			}
			ctx.Access(dArr.Addr(doff), int64(last-doff+1)*8, true)
			ctx.Compute(int64(2 * (len(sBelow) - t)))
		}
	}
}

// spawnComplete launches CompletePanel(d) with default affinity for the
// panel; the completed panel then produces its updates.
func (ap *app) spawnComplete(ctx *cool.Ctx, d int) {
	arr := ap.arrs[d]
	ctx.Spawn("complete", func(c *cool.Ctx) {
		ap.complete(c, d)
		for _, dst := range ap.dsts[d] {
			ap.spawnUpdate(c, int(dst), d)
		}
	}, cool.OnObject(arr.Base))
}

// spawnUpdate launches UpdatePanel(dst ← src): a parallel mutex function
// with affinity(src, TASK) and affinity(dst, OBJECT), per Figure 13.
func (ap *app) spawnUpdate(ctx *cool.Ctx, dst, src int) {
	ctx.Spawn("update", func(c *cool.Ctx) {
		ap.applyUpdate(c, dst, src)
		ap.remaining[dst]--
		if ap.remaining[dst] == 0 {
			ap.spawnComplete(c, dst)
		}
	},
		cool.TaskAffinity(ap.arrs[src].Base),
		cool.ObjectAffinity(ap.arrs[dst].Base),
		cool.WithMutex(ap.mons[dst]),
	)
}

// Run factors the workload on procs processors under the given variant
// and verifies the factor against the serial reference.
func Run(procs int, v Variant, prm Params) (Result, error) {
	return RunWith(cool.Config{Processors: procs}, v, prm)
}

// RunWith factors the workload under an explicit base configuration
// (fault plans, retry policy, deadline); the variant's scheduling knobs
// are applied on top.
func RunWith(cfg cool.Config, v Variant, prm Params) (Result, error) {
	switch v {
	case Base, Distr:
		cfg.Sched.IgnoreHints = true
	case DistrAffCluster:
		cfg.Sched.ClusterStealingOnly = true
	}
	return RunConfig(cfg, v != Base, prm)
}

// RunCustom factors the workload under an explicit scheduling policy
// (used by the ablation experiments: queue-array size, steal policy).
func RunCustom(procs int, sched cool.SchedPolicy, distribute bool, prm Params) (Result, error) {
	return RunConfig(cool.Config{Processors: procs, Sched: sched}, distribute, prm)
}

// RunConfig factors the workload under a fully explicit runtime
// configuration (used by the machine-sensitivity experiments).
func RunConfig(cfg cool.Config, distribute bool, prm Params) (Result, error) {
	rt, err := cool.NewRuntime(cfg)
	if err != nil {
		return Result{}, err
	}
	return runBuilt(rt, distribute, prm)
}

// RunOn factors the workload on an existing runtime that has not run
// yet (fresh from NewRuntime or Reset) — the serving layer's
// warm-reuse entry point. The config-level variant knobs (IgnoreHints
// for Base/Distr, ClusterStealingOnly for DistrAffCluster) cannot be
// applied to an already-built runtime; panel distribution and the
// affinity hints still follow the variant.
func RunOn(rt *cool.Runtime, v Variant, prm Params) (Result, error) {
	return runBuilt(rt, v != Base, prm)
}

func runBuilt(rt *cool.Runtime, distribute bool, prm Params) (Result, error) {
	prep, err := Prepare(prm)
	if err != nil {
		return Result{}, err
	}
	return runPrepared(rt, distribute, prep)
}

// RunOnPrep factors like RunOn but reuses prep's analyze phase — the
// serving layer's resident-space fast path. prm must match the
// parameters prep was built for.
func RunOnPrep(rt *cool.Runtime, v Variant, prm Params, prep *Prep) (Result, error) {
	if prep == nil {
		return RunOn(rt, v, prm)
	}
	if prep.prm != prm.normalize() {
		return Result{}, fmt.Errorf("pancho: prep built for %+v, job wants %+v", prep.prm, prm.normalize())
	}
	return runPrepared(rt, v != Base, prep)
}

func runPrepared(rt *cool.Runtime, distribute bool, prep *Prep) (Result, error) {
	ap := buildPrep(rt, prep, distribute)
	// The initially ready panels are collected before the first spawn:
	// once a complete task exists, its updates decrement remaining[]
	// concurrently, and a panel whose count reached zero that way has
	// already been completed by the update that zeroed it.
	var ready []int
	for _, p := range ap.ps.Panels {
		if ap.remaining[p.ID] == 0 {
			ready = append(ready, p.ID)
		}
	}
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for _, d := range ready {
				ap.spawnComplete(ctx, d)
			}
		})
	})
	if err != nil {
		return Result{}, fmt.Errorf("pancho custom: %w", err)
	}
	return ap.finish(prep.a, rt, prep.ref)
}

// RunSerial factors the same workload in a single task on one processor:
// the speedup denominator (no task creation or synchronization cost).
func RunSerial(prm Params) (Result, error) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		return Result{}, err
	}
	ap, a := build(rt, prm, false)
	err = rt.Run(func(ctx *cool.Ctx) {
		for d := range ap.ps.Panels {
			ap.complete(ctx, d)
			for _, dst := range ap.dsts[d] {
				ap.applyUpdate(ctx, int(dst), d)
			}
		}
	})
	if err != nil {
		return Result{}, fmt.Errorf("pancho serial: %w", err)
	}
	return ap.finish(a, rt, nil)
}

// finish extracts the factor's true entries and verifies them against
// the serial reference — ref when the caller prepared one, computed
// fresh otherwise.
func (ap *app) finish(a *sparse.Sym, rt *cool.Runtime, ref *sparse.Factor) (Result, error) {
	ps := ap.ps
	symb := ps.S
	f := &sparse.Factor{S: symb, Val: make([]float64, symb.LNNZ())}
	for j := 0; j < symb.N; j++ {
		pid := int(ps.Owner[j])
		p := ps.Panels[pid]
		off := ap.colOff(pid, j)
		base := symb.LColPtr[j]
		for q, r := range symb.LCol(j) {
			pos := ps.RowPos(p, j, r)
			if pos < 0 {
				return Result{}, fmt.Errorf("pancho: true entry (%d,%d) missing from stored structure", r, j)
			}
			f.Val[base+int64(q)] = ap.arrs[pid].Data[off+pos]
		}
	}
	res := Result{
		Cycles:   rt.ElapsedCycles(),
		Report:   rt.Report(),
		Residual: sparse.ResidualNorm(a, f),
		Panels:   len(ps.Panels),
		Tasks:    rt.Report().Total.TasksRun,
	}
	if ref == nil {
		var err error
		ref, err = sparse.Cholesky(a, symb)
		if err != nil {
			return res, err
		}
	}
	res.MaxDiff = sparse.MaxDiff(ref, f)
	if res.Residual > 1e-9 {
		return res, fmt.Errorf("pancho: residual %g too large", res.Residual)
	}
	if res.MaxDiff > 1e-9 {
		return res, fmt.Errorf("pancho: factor differs from serial reference by %g", res.MaxDiff)
	}
	return res, nil
}

// PaddingZero verifies on a fresh factorization that every padded slot
// of the trapezoid layout is exactly zero (test hook).
func PaddingZero(prm Params) (bool, error) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		return false, err
	}
	ap, _ := build(rt, prm, false)
	err = rt.Run(func(ctx *cool.Ctx) {
		for d := range ap.ps.Panels {
			ap.complete(ctx, d)
			for _, dst := range ap.dsts[d] {
				ap.applyUpdate(ctx, int(dst), d)
			}
		}
	})
	if err != nil {
		return false, err
	}
	ps := ap.ps
	for j := 0; j < ps.S.N; j++ {
		pid := int(ps.Owner[j])
		p := ps.Panels[pid]
		off := ap.colOff(pid, j)
		truth := map[int32]bool{}
		for _, r := range ps.S.LCol(j) {
			truth[r] = true
		}
		for pos := 0; pos < ps.ColLen(j); pos++ {
			var r int32
			if pos < p.End-j {
				r = int32(j + pos)
			} else {
				r = ps.Below[pid][pos-(p.End-j)]
			}
			if !truth[r] && ap.arrs[pid].Data[off+pos] != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}
