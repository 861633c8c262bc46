package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// Runner executes one job on a runtime that has not run yet (fresh or
// Reset) and returns the job's verification string. res is the serving
// entry's residency cache (never nil in a pool; runners that do not
// exploit residency just ignore it). The default is CatalogRunner;
// tests inject cheap runners.
type Runner func(rt *cool.Runtime, job *Job, res *Residency) (verify string, err error)

// CatalogRunner resolves the job against the serving catalog and runs
// it — the production runner. Keyed jobs run through the residency
// cache: a resident space skips its analyze phase, a non-resident one
// runs it and becomes resident. A handle the residency did not keep —
// a stolen job's, or the space Store evicted — goes back to the apps
// layer after the run, for the next analyze phase to refill. Apps with
// no separable analyze phase pass through untouched.
func CatalogRunner(rt *cool.Runtime, job *Job, res *Residency) (string, error) {
	var prep, dropped any
	if res != nil && apps.CatalogHasPrepare(job.Req.App) {
		var ok bool
		if prep, ok = res.Lookup(job); !ok {
			var err error
			if prep, err = apps.PrepareCatalog(job.Req.App, job.Req.Size); err != nil {
				return "", err
			}
			dropped = res.Store(job, prep)
		}
	}
	r, err := apps.RunCatalogPrepared(rt, job.Req.App, job.Req.Size, prep)
	apps.ReleasePrepared(dropped)
	if err != nil {
		return "", err
	}
	return r.Verify, nil
}

// entry is one warm runtime plus its job queue. A single goroutine
// (loop) owns rt: it takes a job — the oldest of its own queue, else
// one stolen from another entry's backlog — runs it, Resets the runtime
// for the next one, and rebuilds from scratch only when Reset refuses
// (a failed run leaves the runtime unrecoverable).
type entry struct {
	id   int
	res  *Residency // its own jobs probe and store here
	view *Residency // res borrowed by the jobs it steals
	wake *sync.Cond // on pool.mu; only loop waits on it

	// Guarded by pool.mu.
	queue   []*Job // oldest first; its array is reused, so a push allocates only past the peak backlog
	running bool
	idle    bool // loop is waiting on wake

	broken    bool // owned by loop: the last Reset and its rebuild both failed
	completed atomic.Int64
	steals    atomic.Int64
	rebuilds  atomic.Int64
	alive     atomic.Int64

	rt *cool.Runtime // owned by loop after start
}

// stat is called with pool.mu held.
func (e *entry) stat() EntryStat {
	running := 0
	if e.running {
		running = 1
	}
	return EntryStat{
		ID:         e.id,
		Queued:     len(e.queue),
		Running:    running,
		Alive:      int(e.alive.Load()),
		Completed:  e.completed.Load(),
		Steals:     e.steals.Load(),
		Rebuilds:   e.rebuilds.Load(),
		PrepHits:   e.res.Hits(),
		PrepMisses: e.res.Misses(),
	}
}

// pool is the set of warm runtimes. The router only places a job at an
// entry; the pool balances late, as COOL's idle servers do: an entry
// whose queue is empty takes the newest job of the deepest other
// backlog, if that backlog holds at least stealMin jobs.
type pool struct {
	mu      sync.Mutex
	entries []*entry
	closed  bool // guarded by mu: no more pushes; loops exit once nothing is left for them

	rtCfg  cool.Config
	runner Runner
	now    func() int64
	ended  func(*Job) // called after a job finishes, done or failed
	wg     sync.WaitGroup
}

func newPool(n int, rtCfg cool.Config, runner Runner, resident int, now func() int64, ended func(*Job)) (*pool, error) {
	p := &pool{rtCfg: rtCfg, runner: runner, now: now, ended: ended}
	for i := 0; i < n; i++ {
		rt, err := cool.NewRuntime(rtCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: building runtime %d: %w", i, err)
		}
		res := newResidency(resident)
		e := &entry{id: i, res: res, view: res.borrow(), wake: sync.NewCond(&p.mu), rt: rt}
		e.alive.Store(int64(rt.Processors()))
		p.entries = append(p.entries, e)
	}
	for _, e := range p.entries {
		p.wg.Add(1)
		go p.loop(e)
	}
	return p, nil
}

// queueCap bounds each entry's queue; a full queue fails the submit
// (the caller reports it as rejected) rather than blocking the router.
const queueCap = 4096

// stealMin is the backlog an entry must hold before another entry
// steals from it. The stolen job is the newest, which would otherwise
// wait behind at least one full job plus the running one; on a keyed
// job that wait costs more than the analyze phase the thief repeats.
// With one job queued the home runs it next, and the job keeps its
// resident state.
const stealMin = 2

// push queues j at e and reports false when e's queue is full. It wakes
// e, and wakes the idle entries only once e's backlog can be stolen
// from, so a push onto a short queue disturbs nobody else.
func (p *pool) push(e *entry, j *Job) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(e.queue) >= queueCap {
		return false
	}
	e.queue = append(e.queue, j)
	if e.idle {
		e.wake.Signal()
	}
	if len(e.queue) >= stealMin {
		for _, o := range p.entries {
			if o.idle && o != e {
				o.wake.Signal()
			}
		}
	}
	return true
}

// next blocks until e has a job to run and reports whether it was
// stolen. It returns nil once the pool is closed and e has nothing
// left to take.
func (p *pool) next(e *entry) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.running = false
	for {
		if len(e.queue) > 0 {
			j := e.queue[0]
			n := copy(e.queue, e.queue[1:])
			e.queue[n] = nil
			e.queue = e.queue[:n]
			e.running = true
			return j, false
		}
		if v := p.victim(e); v != nil {
			n := len(v.queue) - 1
			j := v.queue[n]
			v.queue[n] = nil
			v.queue = v.queue[:n]
			e.running = true
			return j, true
		}
		if p.closed {
			return nil, false
		}
		e.idle = true
		e.wake.Wait()
		e.idle = false
	}
}

// victim is the deepest other entry holding at least stealMin queued
// jobs, ties to the lower ID; nil when there is none, or when thief is
// broken (every job it ran would fail fast).
func (p *pool) victim(thief *entry) *entry {
	if thief.broken {
		return nil
	}
	var v *entry
	for _, o := range p.entries {
		if o != thief && len(o.queue) >= stealMin && (v == nil || len(o.queue) > len(v.queue)) {
			v = o
		}
	}
	return v
}

// close stops the pool: each loop runs what is left for it, then exits.
func (p *pool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, e := range p.entries {
		e.wake.Signal()
	}
}

// loop runs one entry's jobs until the pool is closed and drained —
// making shutdown leak-free by construction: wg.Wait returns only after
// every loop goroutine is gone, and each job's runtime has itself
// joined all its worker goroutines before Run returns.
func (p *pool) loop(e *entry) {
	defer p.wg.Done()
	for {
		j, stolen := p.next(e)
		if j == nil {
			return
		}
		res := e.res
		if stolen {
			e.steals.Add(1)
			res = e.view
		}
		j.start(e.id, p.now())

		verify, err := p.runner(e.rt, j, res)
		// Counted before finish wakes the job's waiters, so a waiter
		// reading Report afterwards always sees its job completed.
		e.completed.Add(1)
		if err != nil {
			j.finish(JobFailed, "", err.Error(), p.now())
		} else {
			j.finish(JobDone, verify, "", p.now())
		}
		p.ended(j)

		// Re-arm for the next job: warm Reset normally, full rebuild
		// when the run left the runtime unrecoverable.
		if rerr := e.rt.Reset(); rerr != nil {
			e.rebuilds.Add(1)
			nrt, nerr := cool.NewRuntime(p.rtCfg)
			if nerr != nil {
				// Keep the broken runtime; every job this entry runs
				// until a rebuild succeeds fails fast through Reset's
				// refusal in the runner, so it steals none.
				e.broken = true
				continue
			}
			e.rt = nrt
		}
		e.broken = false
		e.alive.Store(int64(e.rt.Processors()))
	}
}

func (p *pool) stats() []EntryStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]EntryStat, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.stat()
	}
	return out
}

func wallNow() int64 { return time.Now().UnixNano() }
