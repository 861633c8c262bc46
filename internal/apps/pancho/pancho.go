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
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
	"github.com/coolrts/cool/internal/sparse"
)

// Variant indexes the program versions of Figure 14.
type Variant int

const (
	Base Variant = iota
	Distr
	DistrAff
	DistrAffCluster
)

// Variants are the figure's program versions in order, named as in its
// legend.
var Variants = []harness.Variant{
	// All panels in one memory, scheduling ignores hints.
	{Name: "Base", IgnoreHints: true},
	// Panels distributed round-robin, scheduling ignores hints.
	{Name: "Distr", IgnoreHints: true, Distribute: true},
	// Distribution plus affinity scheduling.
	{Name: "Distr+Aff", Distribute: true},
	// Distr+Aff with stealing restricted to the cluster.
	{Name: "Distr+Aff+ClusterStealing", Distribute: true, ClusterStealingOnly: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares pancho to the registry.
var Program = harness.Program{
	Name:           "pancho",
	Rows:           Variants,
	Served:         int(DistrAff),
	Sizes:          map[string]int{"smoke": 20, "small": 32, "medium": 64, "large": 96},
	ScheduleTokens: map[string]bool{"residual": true, "maxdiff": true},
	Sized: func(size int) harness.Workload {
		p := DefaultParams()
		if size > 0 {
			p.Grid = size
		}
		return p
	},
}

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

// Result is the correctness evidence of one run.
type Result struct {
	Residual float64 // ‖LLᵀx − Ax‖∞ / ‖Ax‖∞
	MaxDiff  float64 // vs the serial reference factor
	Panels   int
}

func (r Result) Verify(serial bool) string {
	if serial {
		return fmt.Sprintf("residual=%.2e", r.Residual)
	}
	return fmt.Sprintf("residual=%.2e maxdiff=%.2e panels=%d", r.Residual, r.MaxDiff, r.Panels)
}

// app is the per-run state shared by the tasks. Everything it holds
// that grows with the workload — the countdown, the handle slices and
// the task records — is host scratch: made once for a Params, handed
// from job to job through stash, and refitted to the job's Prep by fit.
type app struct {
	prep      *Prep
	ownsPrep  bool // Build made prep inline: Release hands it back
	ps        *sparse.PanelSet
	dsts      [][]int32
	remaining []int32
	arrs      []*cool.F64 // panel trapezoid values in simulated memory
	mons      []*cool.Monitor
	ready     []int // Main's initially ready panels

	// The task records: completes[d] runs CompletePanel(d), and
	// updates[upd[d]+k] runs UpdatePanel(dsts[d][k] ← d), one per update
	// edge. Each record's body is a method value bound once, when the
	// record is made, so spawning a task allocates nothing.
	completes []*completeTask
	updates   []*updateTask
	upd       []int32
}

// completeTask is the record of CompletePanel(d).
type completeTask struct {
	ap  *app
	d   int
	run func(*cool.Ctx)
}

// updateTask is the record of UpdatePanel(dst ← src).
type updateTask struct {
	ap       *app
	dst, src int
	run      func(*cool.Ctx)
}

// stash hands an app's scratch from a finished job to the next job of
// equal Params (see harness.Stash): two per catalog preset.
var stash = harness.Stash[Params, *app]{Cap: 8}

// products holds Finish's product vectors, L(Lᵀx), one per Finish under
// way: a Finish takes one and puts it back, so concurrent Finishes of one
// run each have their own.
var products = harness.Stash[Params, []float64]{Cap: 8}

// fit points ap at prep for one job: it sizes the scratch to prep's
// panels and update edges, making only what is missing, and rewrites
// every record's operands, so a stashed app made for another Prep of
// equal Params (or another matrix altogether) runs prep's DAG.
func (ap *app) fit(prep *Prep) {
	ps := prep.ps
	np := len(ps.Panels)
	ap.prep, ap.ps, ap.dsts = prep, ps, prep.deps.Dsts
	ap.remaining = append(ap.remaining[:0], prep.deps.NUpd...)
	ap.arrs = resize(ap.arrs, np)
	ap.mons = resize(ap.mons, np)
	ap.upd = resize(ap.upd, np)
	for len(ap.completes) < np {
		t := &completeTask{ap: ap}
		t.run = t.body
		ap.completes = append(ap.completes, t)
	}
	ap.completes = ap.completes[:np]
	edges := 0
	for d, dsts := range ap.dsts {
		ap.completes[d].d = d
		ap.upd[d] = int32(edges)
		for _, dst := range dsts {
			if edges == len(ap.updates) {
				t := &updateTask{ap: ap}
				t.run = t.body
				ap.updates = append(ap.updates, t)
			}
			ap.updates[edges].dst, ap.updates[edges].src = int(dst), d
			edges++
		}
	}
	ap.updates = ap.updates[:edges]
}

// resize returns s with length n, reusing its storage when it can.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Release returns the scratch to the stash once the job's evidence is
// taken, dropping the runtime's handles and the Prep so the stash holds
// neither, and hands back a Prep Build made inline.
func (ap *app) Release() {
	clear(ap.arrs)
	clear(ap.mons)
	prep, owned := ap.prep, ap.ownsPrep // ap is the next job's once stashed
	ap.prep, ap.ps, ap.dsts = nil, nil, nil
	stash.Put(prep.prm, ap)
	if owned {
		prep.Release()
	}
}

// Prep is the reusable analyze-phase output for one workload: the
// assembled matrix, its symbolic factorization and panel partition, the
// update DAG, and where each true factor entry sits in the panels. All
// of it is a pure function of Params and is read-only during a run (the
// per-run update countdown is copied out), so one Prep can back any
// number of factorizations — the split real sparse solvers make between
// analyze and factorize. A serving layer that keeps a space's Prep
// resident turns routing affinity into avoided work. The checker's
// serial reference is not analyze-phase output: ref points at a cell
// shared by every Prep of the same grid, filled by the first Finish.
//
// A Prep's storage is recycled: Release hands it to preps, and the next
// Prepare of equal Params refills it in place, together with the
// analyze phase's temporaries in work, so a warm Prepare allocates
// nothing.
type Prep struct {
	prm      Params
	a        *sparse.Sym
	ps       *sparse.PanelSet
	deps     sparse.Deps
	lpos     []int32 // per true entry of L, in LColPtr order: its index in its panel's array
	ref      *refCell
	work     sparse.Scratch
	released bool // in preps, or poisoned: no run may read it
}

// preps holds released Preps for the next Prepare of equal Params (see
// harness.Stash): two per catalog preset.
var preps = harness.Stash[Params, *Prep]{Cap: 8}

// poisonReleased is PoisonReleased's switch.
var poisonReleased atomic.Bool

// PoisonReleased is a test hook: while it is on, Release poisons a Prep
// instead of stashing it — every matrix value becomes NaN and the Prep
// stays marked released — so a run that still reads a Prep after its
// release fails instead of reading a refill that happens to match.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// Prepare runs the analyze phase: everything a factorization needs that
// depends only on the workload parameters, not on the runtime. It
// refills a Prep an earlier job of equal Params released, when there is
// one.
func (prm Params) Prepare() (any, error) {
	prm = prm.normalize()
	prep, ok := preps.Take(prm)
	if !ok {
		prep = new(Prep)
	}
	prep.released = false
	if err := prep.fill(prm); err != nil {
		return nil, err
	}
	return prep, nil
}

// fill runs the analyze phase of prm into prep's storage.
func (prep *Prep) fill(prm Params) error {
	w := &prep.work
	prep.a = sparse.GridLaplacianND(prep.a, prm.Grid, w)
	var symb *sparse.Symb
	if prep.ps != nil {
		symb = prep.ps.S
	}
	symb = sparse.Analyze(symb, prep.a, w)
	prep.ps = sparse.BuildPanelSet(prep.ps, symb, prm.MaxPanel, prm.RelaxFill, w)
	prep.prm, prep.ref = prm, refFor(prm.Grid)
	return prep.index()
}

// index fills the update DAG and lpos from the panel set.
func (prep *Prep) index() error {
	ps := prep.ps
	symb := ps.S
	prep.lpos = resize(prep.lpos, symb.LNNZ())
	for j := 0; j < symb.N; j++ {
		p := ps.Panels[ps.Owner[j]]
		off := int(ps.ColPtr[j] - ps.PanelOff(p))
		base := symb.LColPtr[j]
		cur := 0
		for q, r := range symb.LCol(j) {
			pos := storedPos(ps, p, j, r, &cur)
			if pos < 0 {
				return fmt.Errorf("pancho prepare: true entry (%d,%d) missing from stored structure", r, j)
			}
			prep.lpos[base+int64(q)] = int32(off + pos)
		}
	}
	ps.Deps(&prep.deps)
	return nil
}

// Release hands the Prep back for a later Prepare of equal Params to
// refill. Call it once, when no run can read the Prep any more: the
// registry does for a Prep Build made inline, and the serving layer for
// one its residency did not keep.
func (prep *Prep) Release() {
	if prep.released {
		panic("pancho: Prep released twice")
	}
	prep.released = true
	if poisonReleased.Load() {
		for i := range prep.a.Val {
			prep.a.Val[i] = math.NaN()
		}
		return
	}
	preps.Put(prep.prm, prep)
}

// refCell is the serial oracle of one matrix: its reference factor's
// values (on L's structure, which each Prep of the matrix holds), the
// residual's fixed probe x and A·x. The first Finish that needs it
// fills it; it is read-only after. It keeps no part of the Prep that
// filled it, whose storage a later Prepare refills.
type refCell struct {
	once  sync.Once
	want  []float64
	x, ax []float64
	err   error
}

// factorRef builds a reference factor; a test counts its calls.
var factorRef = sparse.Cholesky

// reference returns the prep's reference cell, filled.
func (prep *Prep) reference() (*refCell, error) {
	c := prep.ref
	c.once.Do(func() {
		a := prep.a
		f, err := factorRef(a, prep.ps.S)
		if c.err = err; err != nil {
			return
		}
		c.want = f.Val
		// The probe of sparse.ResidualNorm.
		c.x = make([]float64, a.N)
		for i := range c.x {
			c.x[i] = 1 + float64(i%7)/7
		}
		c.ax = a.MulVec(c.x)
	})
	return c, c.err
}

// refMemo holds the reference cells of the most recently first-seen
// grids, one per catalog preset. A reference is a pure function of the
// grid, and building one costs more than the analyze phase around it.
// An evicted cell lives on in the Preps that hold it.
var refMemo = harness.Memo[int, *refCell]{Cap: 4}

// refFor returns the grid's reference cell, unfilled if it is new.
func refFor(grid int) *refCell {
	return refMemo.Get(grid, func() *refCell { return new(refCell) })
}

// Build lays the workload out as version v asks, reusing a handle from
// Prepare when the caller kept one (the serving layer's resident-space
// fast path) and running the analyze phase inline otherwise; an inline
// Prep goes back at Release.
func (prm Params) Build(rt *cool.Runtime, v int, prep any) (harness.Instance, error) {
	inline := prep == nil
	if inline {
		var err error
		if prep, err = prm.Prepare(); err != nil {
			return nil, err
		}
	}
	pp, ok := prep.(*Prep)
	if !ok {
		return nil, fmt.Errorf("pancho: prepared handle has type %T, want *pancho.Prep", prep)
	}
	if pp.released {
		return nil, errors.New("pancho: prepared handle used after its Release")
	}
	if pp.prm != prm.normalize() {
		return nil, fmt.Errorf("pancho: prep built for %+v, job wants %+v", pp.prm, prm.normalize())
	}
	ap := build(rt, pp, Variants[v].Distribute)
	ap.ownsPrep = inline
	return ap, nil
}

// build lays a prepared workload out in the runtime's memory. The Prep
// is shared and stays read-only: only the update countdown is copied
// per run.
func build(rt *cool.Runtime, prep *Prep, distribute bool) *app {
	ps := prep.ps
	ap, ok := stash.Take(prep.prm)
	if !ok {
		ap = new(app)
	}
	ap.fit(prep)
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
		cur := 0
		for q, r := range arows {
			pos := storedPos(ps, p, j, r, &cur)
			if pos < 0 {
				panic("pancho: A entry outside stored structure")
			}
			ap.arrs[pid].Data[off+pos] = avals[q]
		}
	}
	return ap
}

// storedPos returns the position of row r in stored column j of panel p,
// or -1 if r is not stored. The rows of one column must be asked for in
// increasing order, all at or below j: *cur walks p's Below rows forward.
func storedPos(ps *sparse.PanelSet, p sparse.Panel, j int, r int32, cur *int) int {
	if int(r) < p.End {
		return int(r) - j
	}
	below := ps.Below[p.ID]
	for *cur < len(below) && below[*cur] < r {
		*cur++
	}
	if *cur == len(below) || below[*cur] != r {
		return -1
	}
	return p.End - j + *cur
}

// colOff returns the offset of column j within its panel's value array.
func (ap *app) colOff(pid, j int) int {
	return int(ap.ps.ColPtr[j] - ap.ps.PanelOff(ap.ps.Panels[pid]))
}

// complete performs the internal factorization of panel d, left-looking:
// column j takes the AXPY of each earlier column of the panel, four
// columns at a time, and then its cdiv. Thanks to the trapezoid layout
// each AXPY is dense. Every element takes its updates in column order
// and then its divide, as in the right-looking loop, whose charges
// follow in a pass of their own (DESIGN §6).
func (ap *app) complete(ctx *cool.Ctx, d int) {
	ps := ap.ps
	p := ps.Panels[d]
	arr := ap.arrs[d]
	base := ps.PanelOff(p)
	// column is stored column k of the panel from row j down.
	column := func(k, j int) []float64 {
		off := int(ps.ColPtr[k]-base) + j - k
		return arr.Data[off : off+ps.ColLen(j)]
	}
	for j := p.Start; j < p.End; j++ {
		col := column(j, j)
		k := p.Start
		for ; k+4 <= j; k += 4 {
			c0, c1, c2, c3 := column(k, j), column(k+1, j), column(k+2, j), column(k+3, j)
			m0, m1, m2, m3 := c0[0], c1[0], c2[0], c3[0]
			for i := range col {
				v := col[i]
				v -= m0 * c0[i]
				v -= m1 * c1[i]
				v -= m2 * c2[i]
				v -= m3 * c3[i]
				col[i] = v
			}
		}
		for ; k < j; k++ {
			c := column(k, j)
			mult := c[0]
			for i := range col {
				col[i] -= mult * c[i]
			}
		}
		diag := col[0]
		if diag <= 0 || math.IsNaN(diag) {
			ap.chargeComplete(ctx, p, j)
			panic(fmt.Sprintf("pancho: lost positive definiteness at column %d (pivot %g)", j, diag))
		}
		diag = math.Sqrt(diag)
		col[0] = diag
		for i := 1; i < len(col); i++ {
			col[i] /= diag
		}
	}
	ap.chargeComplete(ctx, p, p.End)
}

// chargeComplete issues complete's charges for panel p's columns before
// end in the right-looking order: column k's cdiv, then its AXPY into
// each later column of the panel.
func (ap *app) chargeComplete(ctx *cool.Ctx, p sparse.Panel, end int) {
	ps := ap.ps
	arr := ap.arrs[p.ID]
	base := ps.PanelOff(p)
	for k := p.Start; k < end; k++ {
		n := ps.ColLen(k)
		ctx.Access(arr.Addr(int(ps.ColPtr[k]-base)), int64(n)*8, true)
		ctx.Compute(int64(n) + 12) // divides plus the square root
		for j := k + 1; j < p.End; j++ {
			n := ps.ColLen(j)
			ctx.Access(arr.Addr(int(ps.ColPtr[j]-base)), int64(n)*8, true)
			ctx.Compute(int64(2 * n))
		}
	}
}

// applyUpdate performs every cmod from completed panel src into panel
// dst: for each source column, for each of its stored rows j landing in
// dst, subtract the scaled source suffix from dst's column j. The source
// columns go four at a time, so a destination element is loaded and
// stored once per four of them and still takes its updates in column
// order. The task holds dst's monitor and src is complete, so nothing
// observes the arithmetic apart from the charges: those follow in a
// pass of their own, in the column-at-a-time order (DESIGN §6).
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
	// Source rows below dst's panel land in dst's Below rows, at the same
	// positions in every column of both panels: merge once, skipping
	// padded source rows dst does not store (their value is 0).
	var buf [256]rowPair
	tail := buf[:0]
	for u, q := hi, 0; u < len(sBelow); u++ {
		r := sBelow[u]
		for q < len(dBelow) && dBelow[q] < r {
			q++
		}
		if q < len(dBelow) && dBelow[q] == r {
			tail = append(tail, rowPair{src: int32(u - hi), dst: int32(q)})
		}
	}
	nb := len(sBelow)
	sBase, dBase := ps.PanelOff(sp), ps.PanelOff(dp)
	// sOff is the offset of source column k's below segment, whose u-th
	// entry is row sBelow[u].
	sOff := func(k int) int { return int(ps.ColPtr[k]-sBase) + sp.End - k }
	sCol := func(k int) []float64 { off := sOff(k); return sArr.Data[off : off+nb] }
	k := sp.Start
	for ; k+4 <= sp.End; k += 4 {
		c0, c1, c2, c3 := sCol(k), sCol(k+1), sCol(k+2), sCol(k+3)
		s0, s1, s2, s3 := c0[hi:], c1[hi:], c2[hi:], c3[hi:]
		for t := lo; t < hi; t++ {
			j := int(sBelow[t])
			col := dArr.Data[ps.ColPtr[j]-dBase:]
			below := col[dp.End-j:] // dst's Below rows of column j
			rows := sBelow[t:hi]
			m0, m1, m2, m3 := c0[t], c1[t], c2[t], c3[t]
			// Rows still inside dst's column range: direct positions.
			i0, i1, i2, i3 := c0[t:hi], c1[t:hi], c2[t:hi], c3[t:hi]
			for u, r := range rows {
				p := int(r) - j
				v := col[p]
				v -= m0 * i0[u]
				v -= m1 * i1[u]
				v -= m2 * i2[u]
				v -= m3 * i3[u]
				col[p] = v
			}
			// Rows below dst's panel: the hoisted scatter.
			for _, pr := range tail {
				v := below[pr.dst]
				v -= m0 * s0[pr.src]
				v -= m1 * s1[pr.src]
				v -= m2 * s2[pr.src]
				v -= m3 * s3[pr.src]
				below[pr.dst] = v
			}
		}
	}
	for ; k < sp.End; k++ { // the last one to three source columns
		c := sCol(k)
		s := c[hi:]
		for t := lo; t < hi; t++ {
			j := int(sBelow[t])
			col := dArr.Data[ps.ColPtr[j]-dBase:]
			below := col[dp.End-j:]
			mult := c[t]
			in := c[t:hi]
			for u, r := range sBelow[t:hi] {
				col[int(r)-j] -= mult * in[u]
			}
			for _, pr := range tail {
				below[pr.dst] -= mult * s[pr.src]
			}
		}
	}
	last := 0 // position of the last scattered row among dst's Below rows
	if len(tail) > 0 {
		last = int(tail[len(tail)-1].dst)
	}
	for k := sp.Start; k < sp.End; k++ {
		// Read the below segment of the source column once per column.
		ctx.Access(sArr.Addr(sOff(k)+lo), int64(nb-lo)*8, false)
		for t := lo; t < hi; t++ {
			j := int(sBelow[t])
			ctx.Access(dArr.Addr(int(ps.ColPtr[j]-dBase)), int64(dp.End-j+last+1)*8, true)
			ctx.Compute(int64(2 * (nb - t)))
		}
	}
}

// rowPair maps a source row below the destination panel (an index into
// the source's Below rows past the destination's range) to its position
// in the destination's Below rows.
type rowPair struct{ src, dst int32 }

// spawnComplete launches CompletePanel(d) with default affinity for the
// panel; the completed panel then produces its updates.
func (ap *app) spawnComplete(ctx *cool.Ctx, d int) {
	ctx.Spawn("complete", ap.completes[d].run, cool.OnObject(ap.arrs[d].Base))
}

func (t *completeTask) body(c *cool.Ctx) {
	ap, d := t.ap, t.d
	ap.complete(c, d)
	for k := range ap.dsts[d] {
		ap.spawnUpdate(c, ap.updates[int(ap.upd[d])+k])
	}
}

// spawnUpdate launches UpdatePanel(dst ← src): a parallel mutex function
// with affinity(src, TASK) and affinity(dst, OBJECT), per Figure 13.
func (ap *app) spawnUpdate(ctx *cool.Ctx, t *updateTask) {
	ctx.Spawn("update", t.run,
		cool.TaskAffinity(ap.arrs[t.src].Base),
		cool.ObjectAffinity(ap.arrs[t.dst].Base),
		cool.WithMutex(ap.mons[t.dst]),
	)
}

func (t *updateTask) body(c *cool.Ctx) {
	ap, dst := t.ap, t.dst
	ap.applyUpdate(c, dst, t.src)
	ap.remaining[dst]--
	if ap.remaining[dst] == 0 {
		ap.spawnComplete(c, dst)
	}
}

// Main seeds the initially ready panels and waits for the update DAG to
// drain inside one waitfor.
func (ap *app) Main(ctx *cool.Ctx) {
	// The ready panels are collected before the first spawn: once a
	// complete task exists, its updates decrement remaining[]
	// concurrently, and a panel whose count reached zero that way has
	// already been completed by the update that zeroed it.
	ap.ready = ap.ready[:0]
	for _, p := range ap.ps.Panels {
		if ap.remaining[p.ID] == 0 {
			ap.ready = append(ap.ready, p.ID)
		}
	}
	ctx.WaitFor(func() {
		for _, d := range ap.ready {
			ap.spawnComplete(ctx, d)
		}
	})
}

// Serial factors the same workload in a single task on one processor.
func (ap *app) Serial(ctx *cool.Ctx) {
	for d := range ap.ps.Panels {
		ap.complete(ctx, d)
		for _, dst := range ap.dsts[d] {
			ap.applyUpdate(ctx, int(dst), d)
		}
	}
}

// Finish verifies the factor in place against the serial reference:
// the largest difference from it, and the residual ‖LLᵀx − Ax‖∞ / ‖Ax‖∞
// on the reference's probe. Each value is read from its panel through
// lpos, and every sum runs in the order of sparse.MaxDiff,
// Factor.MulVec and sparse.ResidualNorm, so the evidence is theirs bit
// for bit on the extracted factor.
func (ap *app) Finish() (harness.Evidence, error) {
	prep := ap.prep
	ref, err := prep.reference()
	if err != nil {
		return nil, fmt.Errorf("pancho: reference factor: %w", err)
	}
	symb := ap.ps.S
	want, x := ref.want, ref.x
	y, _ := products.Take(prep.prm) // y = L (Lᵀ x)
	y = resize(y, symb.N)
	clear(y)
	defer products.Put(prep.prm, y)
	var maxDiff float64
	for j := 0; j < symb.N; j++ {
		data := ap.arrs[ap.ps.Owner[j]].Data
		rows := symb.LCol(j)
		lo := symb.LColPtr[j]
		pos := prep.lpos[lo : lo+int64(len(rows))]
		sum := 0.0 // (Lᵀ x)_j
		for q, r := range rows {
			v := data[pos[q]]
			if d := math.Abs(want[lo+int64(q)] - v); d > maxDiff || math.IsNaN(d) {
				maxDiff = d // a NaN sticks: nothing compares greater
			}
			sum += v * x[r]
		}
		// Each y_r gathers its terms in increasing j, as in MulVec's
		// second pass.
		for q, r := range rows {
			y[r] += data[pos[q]] * sum
		}
	}
	var num, den float64
	for i, ax := range ref.ax {
		if d := math.Abs(y[i] - ax); d > num || math.IsNaN(d) {
			num = d // a NaN sticks: nothing compares greater
		}
		if d := math.Abs(ax); d > den {
			den = d
		}
	}
	res := Result{Residual: num, MaxDiff: maxDiff, Panels: len(ap.ps.Panels)}
	if den != 0 {
		res.Residual = num / den
	}
	// Written to fail on NaN, which compares false with everything.
	if !(res.Residual <= 1e-9) {
		return nil, fmt.Errorf("pancho: residual %g too large", res.Residual)
	}
	if !(res.MaxDiff <= 1e-9) {
		return nil, fmt.Errorf("pancho: factor differs from serial reference by %g", res.MaxDiff)
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
	inst, err := prm.Build(rt, int(Base), nil)
	if err != nil {
		return false, err
	}
	ap := inst.(*app)
	if err := rt.Run(ap.Serial); err != nil {
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
