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
// runs it and becomes resident. Apps with no separable analyze phase
// pass through untouched.
func CatalogRunner(rt *cool.Runtime, job *Job, res *Residency) (string, error) {
	var prep any
	if res != nil && apps.CatalogHasPrepare(job.Req.App) {
		var ok bool
		if prep, ok = res.Lookup(job); !ok {
			built, err := apps.PrepareCatalog(job.Req.App, job.Req.Size)
			if err != nil {
				return "", err
			}
			if built != nil {
				res.Store(job, built)
				prep = built
			}
		}
	}
	r, err := apps.RunCatalogPrepared(rt, job.Req.App, job.Req.Size, prep)
	if err != nil {
		return "", err
	}
	return r.Verify, nil
}

// entry is one warm runtime plus its serial job queue. A single
// goroutine (loop) owns rt: it runs a job, Resets the runtime for the
// next one, and rebuilds from scratch only when Reset refuses (a
// failed run leaves the runtime unrecoverable).
type entry struct {
	id   int
	jobs chan *Job
	res  *Residency

	queued    atomic.Int64
	running   atomic.Int64
	completed atomic.Int64
	rebuilds  atomic.Int64
	alive     atomic.Int64

	rt *cool.Runtime // owned by loop after start
}

func (e *entry) stat() EntryStat {
	return EntryStat{
		ID:         e.id,
		Queued:     int(e.queued.Load()),
		Running:    int(e.running.Load()),
		Alive:      int(e.alive.Load()),
		Completed:  e.completed.Load(),
		PrepHits:   e.res.Hits(),
		PrepMisses: e.res.Misses(),
	}
}

// pool is the set of warm runtimes.
type pool struct {
	entries []*entry
	rtCfg   cool.Config
	runner  Runner
	now     func() int64
	wg      sync.WaitGroup
}

func newPool(n int, rtCfg cool.Config, runner Runner, resident int, now func() int64) (*pool, error) {
	p := &pool{rtCfg: rtCfg, runner: runner, now: now}
	for i := 0; i < n; i++ {
		rt, err := cool.NewRuntime(rtCfg)
		if err != nil {
			return nil, fmt.Errorf("serve: building runtime %d: %w", i, err)
		}
		e := &entry{id: i, jobs: make(chan *Job, queueCap), res: newResidency(resident), rt: rt}
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

// loop serially drains one entry's queue. It exits when the queue is
// closed and empty — the drain path — making shutdown leak-free by
// construction: wg.Wait returns only after every loop goroutine is
// gone, and each job's runtime has itself joined all its worker
// goroutines before Run returns.
func (p *pool) loop(e *entry) {
	defer p.wg.Done()
	for j := range e.jobs {
		e.queued.Add(-1)
		e.running.Store(1)
		j.start(p.now())

		verify, err := p.runner(e.rt, j, e.res)
		// Counted before finish wakes the job's waiters, so a waiter
		// reading Report afterwards always sees its job completed.
		e.completed.Add(1)
		if err != nil {
			j.finish(JobFailed, "", err.Error(), p.now())
		} else {
			j.finish(JobDone, verify, "", p.now())
		}

		// Re-arm for the next job: warm Reset normally, full rebuild
		// when the run left the runtime unrecoverable.
		if rerr := e.rt.Reset(); rerr != nil {
			e.rebuilds.Add(1)
			nrt, nerr := cool.NewRuntime(p.rtCfg)
			if nerr != nil {
				// Keep the broken runtime; every subsequent job on this
				// entry fails fast through Reset's refusal in the runner.
				e.running.Store(0)
				continue
			}
			e.rt = nrt
		}
		e.alive.Store(int64(e.rt.Processors()))
		e.running.Store(0)
	}
}

func (p *pool) stats() []EntryStat {
	out := make([]EntryStat, len(p.entries))
	for i, e := range p.entries {
		out[i] = e.stat()
	}
	return out
}

func wallNow() int64 { return time.Now().UnixNano() }
