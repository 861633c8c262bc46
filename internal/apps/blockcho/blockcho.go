// Package blockcho is the Block Cholesky case study (paper §6.4):
// right-looking dense Cholesky factorization with the matrix stored as a
// 2-D array of blocks. Tasks are per-block operations — potrf of a
// diagonal block, triangular solves (trsm) of the blocks below it, and
// rank-k updates (gemm) of trailing blocks — linked by counters guarded
// by per-block monitors. Affinity hints collocate each task with the
// block it writes (OBJECT) and group tasks reading a common source block
// (TASK), and blocks are distributed round-robin across memories.
package blockcho

import (
	"fmt"
	"math"

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
	// Blocks in one memory, hints ignored.
	{Name: "Base", IgnoreHints: true},
	// Blocks distributed, affinity hints honoured.
	{Name: "Affinity+Distr", Distribute: true},
}

func (v Variant) String() string { return Variants[v].Name }

// Program declares blockcho to the registry.
var Program = harness.Program{
	Name:           "blockcho",
	Rows:           Variants,
	Served:         int(AffDistr),
	Sizes:          map[string]int{"smoke": 64, "small": 128, "medium": 256, "large": 384},
	ScheduleTokens: map[string]bool{"maxdiff": true},
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
	B int // block size
}

// DefaultParams returns the standard workload (12×12 blocks of 32).
func DefaultParams() Params { return Params{N: 384, B: 32} }

func (p Params) normalize() (Params, error) {
	d := DefaultParams()
	if p.N <= 0 {
		p.N = d.N
	}
	if p.B <= 0 {
		p.B = d.B
	}
	if p.N%p.B != 0 {
		return p, fmt.Errorf("blockcho: N (%d) must be divisible by B (%d)", p.N, p.B)
	}
	return p, nil
}

// Result is the correctness evidence of one run.
type Result struct {
	MaxDiff float64 // vs the unblocked host reference factor
	Blocks  int
}

func (r Result) Verify(serial bool) string {
	if serial {
		return fmt.Sprintf("maxdiff=%.2e", r.MaxDiff)
	}
	return fmt.Sprintf("maxdiff=%.2e blocks=%d", r.MaxDiff, r.Blocks)
}

type app struct {
	prm  Params
	nb   int
	blks []*cool.F64 // lower blocks, packed by blockIdx
	mons []*cool.Monitor
	rem  []int32 // outstanding prerequisites per block
	done []bool  // trsm/potrf completed, guarded by colMon of its column
	cols []*cool.Monitor

	// The task records, one per task a job spawns: potrfs[j], and per
	// block id notifies[id], trsms[id] and gemms[gemmAt[id]+k] for its
	// update from column k. Their bodies are method values bound once,
	// when the app is made, and the app comes from stash, so spawning
	// allocates nothing.
	potrfs   []*blockTask
	notifies []*blockTask
	trsms    []*blockTask
	gemms    []*blockTask
	gemmAt   []int
}

// blockTask is the record of one task on block (i,j) (from column k,
// for a gemm).
type blockTask struct {
	ap      *app
	i, j, k int
	run     func(*cool.Ctx)
	// partners is a trsm's list of finished solves to pair with.
	partners []int
}

// stash hands an app from a finished job to the next job of equal
// Params (see harness.Stash).
var stash = harness.Stash[Params, *app]{Cap: 8}

// blockIdx packs lower-triangular block coordinates (i >= j).
func (ap *app) blockIdx(i, j int) int { return i*(i+1)/2 + j }

// Build validates the parameters and lays the blocks out as version v asks.
func (p Params) Build(rt *cool.Runtime, v int, _ any) (harness.Instance, error) {
	p, err := p.normalize()
	if err != nil {
		return nil, err
	}
	return build(rt, p, Variants[v].Distribute), nil
}

// newApp makes an app for prm with its records.
func newApp(prm Params) *app {
	nb := prm.N / prm.B
	ap := &app{prm: prm, nb: nb}
	nblk := nb * (nb + 1) / 2
	ap.blks = make([]*cool.F64, nblk)
	ap.mons = make([]*cool.Monitor, nblk)
	ap.rem = make([]int32, nblk)
	ap.done = make([]bool, nblk)
	ap.cols = make([]*cool.Monitor, nb)
	ap.potrfs = make([]*blockTask, nb)
	ap.notifies = make([]*blockTask, nblk)
	ap.trsms = make([]*blockTask, nblk)
	ap.gemmAt = make([]int, nblk)
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			id := ap.blockIdx(i, j)
			if i == j {
				t := &blockTask{ap: ap, i: i, j: j}
				t.run = t.potrf
				ap.potrfs[j] = t
			} else {
				t := &blockTask{ap: ap, i: i, j: j}
				t.run = t.notify
				ap.notifies[id] = t
				t = &blockTask{ap: ap, i: i, j: j, partners: make([]int, 0, nb)}
				t.run = t.trsm
				ap.trsms[id] = t
			}
			ap.gemmAt[id] = len(ap.gemms)
			for k := 0; k < j; k++ {
				t := &blockTask{ap: ap, i: i, j: j, k: k}
				t.run = t.gemm
				ap.gemms = append(ap.gemms, t)
			}
		}
	}
	return ap
}

func build(rt *cool.Runtime, prm Params, distribute bool) *app {
	ap, ok := stash.Take(prm)
	if !ok {
		ap = newApp(prm)
	}
	nb := ap.nb
	clear(ap.done)
	for j := 0; j < nb; j++ {
		ap.cols[j] = rt.NewMonitor(0)
	}
	for i := 0; i < nb; i++ {
		for j := 0; j <= i; j++ {
			id := ap.blockIdx(i, j)
			proc := 0
			if distribute {
				proc = id % rt.Processors()
			}
			arr := rt.NewF64Pages(prm.B*prm.B, proc)
			ap.blks[id] = arr
			ap.mons[id] = rt.NewMonitor(arr.Base)
			// Prerequisites: j gemm updates, plus potrf(j) for
			// off-diagonal blocks.
			ap.rem[id] = int32(j)
			if i != j {
				ap.rem[id]++
			}
			// Initial values: symmetric diagonally dominant matrix
			// a[r][c] = N for r==c else 1/(1+|r-c|).
			for br := 0; br < prm.B; br++ {
				for bc := 0; bc < prm.B; bc++ {
					r, c := i*prm.B+br, j*prm.B+bc
					arr.Data[br*prm.B+bc] = element(prm.N, r, c)
				}
			}
		}
	}
	return ap
}

func element(n, r, c int) float64 {
	if r == c {
		return float64(n)
	}
	d := r - c
	if d < 0 {
		d = -d
	}
	return 1 / float64(1+d)
}

// readBlock charges a read of a whole block.
func readBlock(ctx *cool.Ctx, a *cool.F64) {
	ctx.Access(a.Base, int64(a.Len())*8, false)
}

// writeBlock charges a write of a whole block.
func writeBlock(ctx *cool.Ctx, a *cool.F64) {
	ctx.Access(a.Base, int64(a.Len())*8, true)
}

// potrf factors a diagonal block in place (dense Cholesky).
func (ap *app) potrf(ctx *cool.Ctx, j int) {
	b := ap.prm.B
	a := ap.blks[ap.blockIdx(j, j)].Data
	for k := 0; k < b; k++ {
		d := a[k*b+k]
		if d <= 0 || math.IsNaN(d) {
			panic(fmt.Sprintf("blockcho: not positive definite at block %d, pivot %g", j, d))
		}
		d = math.Sqrt(d)
		a[k*b+k] = d
		for i := k + 1; i < b; i++ {
			a[i*b+k] /= d
		}
		for i := k + 1; i < b; i++ {
			lik := a[i*b+k]
			for c := k + 1; c <= i; c++ {
				a[i*b+c] -= lik * a[c*b+k]
			}
		}
		// Zero the strict upper triangle of the factored block.
		for c := k + 1; c < b; c++ {
			a[k*b+c] = 0
		}
	}
	writeBlock(ctx, ap.blks[ap.blockIdx(j, j)])
	ctx.Compute(int64(b) * int64(b) * int64(b) / 3)
}

// trsm solves X · L(j,j)ᵀ = A(i,j) in place: X[r][c] depends on the
// already-computed X[r][<c].
func (ap *app) trsm(ctx *cool.Ctx, i, j int) {
	b := ap.prm.B
	l := ap.blks[ap.blockIdx(j, j)].Data
	x := ap.blks[ap.blockIdx(i, j)].Data
	for r := 0; r < b; r++ {
		for c := 0; c < b; c++ {
			s := x[r*b+c]
			for k := 0; k < c; k++ {
				s -= x[r*b+k] * l[c*b+k]
			}
			x[r*b+c] = s / l[c*b+c]
		}
	}
	readBlock(ctx, ap.blks[ap.blockIdx(j, j)])
	writeBlock(ctx, ap.blks[ap.blockIdx(i, j)])
	ctx.Compute(int64(b) * int64(b) * int64(b))
}

// gemm applies A(i,j) -= L(i,k) · L(j,k)ᵀ.
func (ap *app) gemm(ctx *cool.Ctx, i, j, k int) {
	b := ap.prm.B
	s1 := ap.blks[ap.blockIdx(i, k)].Data
	s2 := ap.blks[ap.blockIdx(j, k)].Data
	d := ap.blks[ap.blockIdx(i, j)].Data
	gemmTiles(d, s1, s2, b, i == j)
	readBlock(ctx, ap.blks[ap.blockIdx(i, k)])
	readBlock(ctx, ap.blks[ap.blockIdx(j, k)])
	writeBlock(ctx, ap.blks[ap.blockIdx(i, j)])
	ctx.Compute(2 * int64(b) * int64(b) * int64(b))
}

// gemmTiles subtracts s1 · s2ᵀ from d, all b×b and row-major; when lower
// (a diagonal block) only d's lower triangle. It takes a 2×2 tile of d
// per pass over t, four independent sums; each sum starts at 0, adds its
// products in ascending t and is then subtracted, as one element's dot
// product alone would be. An odd b's last row and column go one element
// at a time.
func gemmTiles(d, s1, s2 []float64, b int, lower bool) {
	r := 0
	for ; r+2 <= b; r += 2 {
		x0, x1 := s1[r*b:r*b+b], s1[(r+1)*b:(r+1)*b+b]
		d0, d1 := d[r*b:r*b+b], d[(r+1)*b:(r+1)*b+b]
		x1 = x1[:len(x0)]
		n := b // columns the second row updates
		if lower {
			n = r + 2
		}
		c := 0
		for ; c+2 <= n; c += 2 {
			y0, y1 := s2[c*b:c*b+b], s2[(c+1)*b:(c+1)*b+b]
			y0, y1 = y0[:len(x0)], y1[:len(x0)]
			var s00, s01, s10, s11 float64
			for t, a0 := range x0 {
				a1, b0, b1 := x1[t], y0[t], y1[t]
				s00 += a0 * b0
				s01 += a0 * b1
				s10 += a1 * b0
				s11 += a1 * b1
			}
			d0[c] -= s00
			if !lower || c+1 <= r {
				d0[c+1] -= s01
			}
			d1[c] -= s10
			d1[c+1] -= s11
		}
		if c < n {
			y := s2[c*b : c*b+b]
			d0[c] -= dot(x0, y)
			d1[c] -= dot(x1, y)
		}
	}
	if r < b {
		x := s1[r*b : r*b+b]
		n := b
		if lower {
			n = r + 1
		}
		for c := 0; c < n; c++ {
			d[r*b+c] -= dot(x, s2[c*b:c*b+b])
		}
	}
}

// dot is x · y, summed from 0 in ascending index.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for t, v := range x {
		s += v * y[t]
	}
	return s
}

// arrive decrements block (i,j)'s prerequisite count (the caller holds
// its monitor) and spawns its operation when ready.
func (ap *app) arrive(c *cool.Ctx, i, j int) {
	id := ap.blockIdx(i, j)
	ap.rem[id]--
	if ap.rem[id] != 0 {
		return
	}
	if i == j {
		ap.spawnPotrf(c, j)
	} else {
		ap.spawnTrsm(c, i, j)
	}
}

// spawnPotrf launches the diagonal factorization of column j. On
// completion it releases every block below in the column.
func (ap *app) spawnPotrf(ctx *cool.Ctx, j int) {
	ctx.Spawn("potrf", ap.potrfs[j].run, cool.OnObject(ap.blks[ap.blockIdx(j, j)].Base))
}

func (t *blockTask) potrf(c *cool.Ctx) {
	ap, j := t.ap, t.j
	ap.potrf(c, j)
	c.Lock(ap.cols[j])
	ap.done[ap.blockIdx(j, j)] = true
	c.Unlock(ap.cols[j])
	for i := j + 1; i < ap.nb; i++ {
		ap.spawnNotify(c, i, j)
	}
}

// spawnNotify delivers potrf(j)'s completion to block (i,j) under its
// monitor (a zero-work mutex task, keeping all counter updates atomic).
func (ap *app) spawnNotify(ctx *cool.Ctx, i, j int) {
	id := ap.blockIdx(i, j)
	ctx.Spawn("notify", ap.notifies[id].run, cool.ObjectAffinity(ap.blks[id].Base), cool.WithMutex(ap.mons[id]))
}

func (t *blockTask) notify(c *cool.Ctx) { t.ap.arrive(c, t.i, t.j) }

// spawnTrsm launches the triangular solve of block (i,j); on completion
// it spawns the gemm updates pairing it with every finished trsm of the
// column.
func (ap *app) spawnTrsm(ctx *cool.Ctx, i, j int) {
	id := ap.blockIdx(i, j)
	ctx.Spawn("trsm", ap.trsms[id].run,
		cool.TaskAffinity(ap.blks[ap.blockIdx(j, j)].Base),
		cool.ObjectAffinity(ap.blks[id].Base),
	)
}

func (t *blockTask) trsm(c *cool.Ctx) {
	ap, i, j := t.ap, t.i, t.j
	ap.trsm(c, i, j)
	c.Lock(ap.cols[j])
	ap.done[ap.blockIdx(i, j)] = true
	partners := t.partners[:0]
	for i2 := j + 1; i2 < ap.nb; i2++ {
		if ap.done[ap.blockIdx(i2, j)] {
			partners = append(partners, i2)
		}
	}
	c.Unlock(ap.cols[j])
	for _, i2 := range partners {
		hi, lo := i, i2
		if hi < lo {
			hi, lo = lo, hi
		}
		ap.spawnGemm(c, hi, lo, j)
	}
}

// spawnGemm launches the update of block (i,j) from column k: a mutex
// function on the destination with affinity(src, TASK) and
// affinity(dst, OBJECT), mirroring Panel Cholesky's UpdatePanel.
func (ap *app) spawnGemm(ctx *cool.Ctx, i, j, k int) {
	id := ap.blockIdx(i, j)
	ctx.Spawn("gemm", ap.gemms[ap.gemmAt[id]+k].run,
		cool.TaskAffinity(ap.blks[ap.blockIdx(i, k)].Base),
		cool.ObjectAffinity(ap.blks[id].Base),
		cool.WithMutex(ap.mons[id]),
	)
}

func (t *blockTask) gemm(c *cool.Ctx) {
	t.ap.gemm(c, t.i, t.j, t.k)
	t.ap.arrive(c, t.i, t.j)
}

// Main starts the factorization at the first diagonal block; every other
// task is released by the counters.
func (ap *app) Main(ctx *cool.Ctx) {
	ctx.WaitFor(func() {
		ap.spawnPotrf(ctx, 0)
	})
}

// Serial performs the same blocked factorization sequentially.
func (ap *app) Serial(ctx *cool.Ctx) {
	for k := 0; k < ap.nb; k++ {
		ap.potrf(ctx, k)
		for i := k + 1; i < ap.nb; i++ {
			ap.trsm(ctx, i, k)
		}
		for j := k + 1; j < ap.nb; j++ {
			for i := j; i < ap.nb; i++ {
				ap.gemm(ctx, i, j, k)
			}
		}
	}
}

// refFactor is the unblocked host-side Cholesky factor of the n×n
// workload matrix, dense and row-major with the strict upper triangle
// zero.
func refFactor(n int) []float64 {
	ref := make([]float64, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			ref[r*n+c] = element(n, r, c)
		}
	}
	for k := 0; k < n; k++ {
		d := math.Sqrt(ref[k*n+k])
		ref[k*n+k] = d
		for i := k + 1; i < n; i++ {
			ref[i*n+k] /= d
		}
		for i := k + 1; i < n; i++ {
			for c := k + 1; c <= i; c++ {
				ref[i*n+c] -= ref[i*n+k] * ref[c*n+k]
			}
		}
	}
	return ref
}

// refMemo holds the reference factors of the most recently first-seen
// matrix dimensions; the four catalog presets' factors together take
// under 2 MB. A factor is a pure function of N and is never written once
// built, so concurrent runs share it; building one costs more than the
// blocked factorization it checks.
var refMemo = harness.Memo[int, []float64]{Cap: 4}

// reference returns refFactor(n), built on first use and memoized.
func reference(n int) []float64 {
	return refMemo.Get(n, func() []float64 { return refFactor(n) })
}

// Finish compares every lower-triangle element of the blocked factor
// against the unblocked reference factor of the same matrix. A NaN
// difference fails the check.
func (ap *app) Finish() (harness.Evidence, error) {
	n, b := ap.prm.N, ap.prm.B
	ref := reference(n)
	var maxDiff float64
	for i := 0; i < ap.nb; i++ {
		for j := 0; j <= i; j++ {
			blk := ap.blks[ap.blockIdx(i, j)].Data
			for br := 0; br < b; br++ {
				for bc := 0; bc < b; bc++ {
					r, c := i*b+br, j*b+bc
					if c > r {
						continue
					}
					if d := math.Abs(blk[br*b+bc] - ref[r*n+c]); d > maxDiff || math.IsNaN(d) {
						maxDiff = d // a NaN sticks: nothing compares greater
					}
				}
			}
		}
	}
	if !(maxDiff <= 1e-9) {
		return nil, fmt.Errorf("blockcho: factor differs from reference by %g", maxDiff)
	}
	return Result{MaxDiff: maxDiff, Blocks: len(ap.blks)}, nil
}

// Release returns the app to the stash, dropping the runtime's handles.
func (ap *app) Release() {
	clear(ap.blks)
	clear(ap.mons)
	clear(ap.cols)
	stash.Put(ap.prm, ap)
}
