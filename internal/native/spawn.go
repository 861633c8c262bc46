package native

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/trace"
)

// spawn creates, places, and enqueues one task on behalf of ctx. Exactly
// one of fn and payload is non-nil; payload tasks run through
// Config.Invoke.
//
// The scope and live counters are bumped only after placement succeeds:
// placeTask runs the user-supplied Home callback, and if that panics (e.g.
// the address lies outside the embedding runtime's space) the counters
// must not charge a task that was never enqueued — a leaked live count
// would keep done from ever closing and hang Run instead of returning
// the recorded failure.
func (rt *Runtime) spawn(c *Ctx, name string, a core.Affinity, mon *Monitor, fn func(*Ctx), payload any, idx int32) {
	from := c.w.id
	rt.cfg.Mon.Per[from].Spawns++
	t := rt.newTask(c.w)
	t.name, t.fn, t.payload, t.mon, t.idx = name, fn, payload, mon, idx
	t.scope = c.scope
	rt.placeTask(t, a, from) // may panic in cfg.Home; no accounting yet
	if t.scope != nil {
		t.scope.n.Add(1)
	}
	rt.live.Add(1)
	if t.Class == core.ClassTaskSet {
		server := rt.placeSet(t, &rt.cfg.Mon.Per[from]) // t is published after this
		rt.trace(c.w, trace.KindEnqueue, -1, name, int64(server))
		rt.wakeAfterEnqueue(server, from)
		return
	}
	rt.insertAndWake(t, from)
}

// spawnN creates, places, and enqueues n sibling tasks sharing one
// payload; member i runs through Config.InvokeN with index i, and get
// supplies each member's affinity and optional monitor.
//
// The burst is published as one batch: every record is built and placed
// first (placement may panic in cfg.Home, and nothing has been accounted
// or published at that point, so the panic surfaces as a *fault.TaskFailure
// without leaking live counts), the scope and live
// counters then cover the whole batch before any member becomes visible
// (a published child could otherwise complete and cross scope.n through
// zero before its siblings were counted, releasing WaitFor early), and
// finally the batch is published — with one deque bottom store when
// every child is a plain task on the spawner itself, one locked push per
// target otherwise — followed by ONE wake decision for the whole burst.
// SpawnBatches counts these batch publications.
func (rt *Runtime) spawnN(c *Ctx, name string, n int, get func(int) (core.Affinity, *Monitor), payload any) {
	if n <= 0 {
		return
	}
	w := c.w
	from := w.id
	ctr := &rt.cfg.Mon.Per[from]
	ctr.Spawns += int64(n)
	ctr.SpawnBatches++
	batch := w.spawnScratch[:0]
	allPlainSelf := true
	for i := 0; i < n; i++ {
		t := rt.newTask(w)
		t.name, t.payload, t.idx = name, payload, int32(i)
		t.scope = c.scope
		a, mon := get(i)
		t.mon = mon
		// May panic in cfg.Home; nothing accounted yet. Set members
		// resolve their home under the shard lock at publish time
		// (placeSet).
		rt.placeTask(t, a, from)
		if t.Class != core.ClassPlain || t.server != from {
			allPlainSelf = false
		}
		batch = append(batch, t)
	}
	if c.scope != nil {
		c.scope.n.Add(int64(n))
	}
	rt.live.Add(int64(n))
	if allPlainSelf {
		w.queued.Add(int64(n))
		w.stealable.Add(int64(n))
		rt.queuedTotal.Add(int64(n))
		if rt.tracing() {
			for range batch {
				rt.trace(w, trace.KindEnqueue, -1, name, int64(from))
			}
		}
		w.deq.pushBottomN(batch)
	} else {
		// Mixed batch. Set members resolve through the shard protocol and
		// the spawner's own plain children ride its deque. Everything else
		// is chained per target and published under one lock per (batch,
		// target), where every steal rule sees it at once.
		if w.spawnHeads == nil {
			w.spawnHeads = make([]*task, rt.cfg.Procs)
			w.spawnTails = make([]*task, rt.cfg.Procs)
		}
		var targets uint64
		heads, tails := w.spawnHeads, w.spawnTails
		order := w.spawnOrder[:0]
		for _, t := range batch {
			if t.Class == core.ClassTaskSet {
				sv := rt.placeSet(t, ctr)
				rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
				targets |= 1 << uint(sv)
				continue
			}
			if t.Class == core.ClassPlain && t.server == from {
				sv := rt.insertFrom(t, ctr, w) // own deque, no lock
				rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
				continue
			}
			sv := t.server
			t.chain = nil
			if heads[sv] == nil {
				heads[sv] = t
				order = append(order, sv)
			} else {
				tails[sv].chain = t
			}
			tails[sv] = t
		}
		for _, sv := range order {
			chain := heads[sv]
			heads[sv], tails[sv] = nil, nil
			wv := rt.workers[sv]
			rt.lockWorkerCtr(wv, ctr)
			var counts lockedCounts
			for t := chain; t != nil; {
				next := t.chain
				t.chain = nil
				counts.link(wv, t)
				t = next
			}
			counts.apply(wv)
			wv.mu.Unlock()
			rt.queuedTotal.Add(counts.n)
			if rt.tracing() {
				for range counts.n {
					rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
				}
			}
			targets |= 1 << uint(sv)
		}
		w.spawnOrder = order[:0]
		rt.wakeTargets(targets)
	}
	rt.wakePolicy(ctr)
	for i := range batch {
		batch[i] = nil
	}
	w.spawnScratch = batch[:0]
}

// Spawn creates and enqueues a task with the given affinity; mon, when
// non-nil, makes it a mutex function on that monitor.
func (c *Ctx) Spawn(name string, a core.Affinity, mon *Monitor, fn func(*Ctx)) {
	c.rt.spawn(c, name, a, mon, fn, nil, -1)
}

// SpawnPayload creates and enqueues a task whose body is Config.Invoke
// applied to payload. It lets the embedding runtime avoid allocating a
// per-spawn wrapper closure: the adapter is configured once and the
// payload (typically the user's func value) rides through the pooled
// task record.
func (c *Ctx) SpawnPayload(name string, a core.Affinity, mon *Monitor, payload any) {
	c.rt.spawn(c, name, a, mon, nil, payload, -1)
}

// SpawnN creates and enqueues n sibling tasks sharing one payload; the
// get callback supplies each member's affinity and optional monitor, and
// member i runs through Config.InvokeN with index i. A
// burst spawned this way is published as one batch — one deque publish
// and one wake decision instead of n (see spawnN).
func (c *Ctx) SpawnN(name string, n int, get func(int) (core.Affinity, *Monitor), payload any) {
	c.rt.spawnN(c, name, n, get, payload)
}
