package native

import (
	"math/bits"
	"time"

	"github.com/coolrts/cool/internal/perfmon"
)

// wakeFanout is the number of parked workers a targeted wakeup notifies
// before the machine-wide backlog forces a broadcast (same constant as
// the simulator scheduler).
const wakeFanout = 4

// parkRetryLimit is how many consecutive failed takes re-probe
// immediately while work is queued somewhere; past it the worker
// concludes the queued work is work it may not take (pinned heads,
// reluctantly-stolen object-bound tasks) and backs off exponentially
// instead of spinning on the victims' queue locks — spinning would
// slow the very workers running those tasks.
const (
	parkRetryLimit = 4
	backoffBase    = 20 * time.Microsecond
	backoffCap     = time.Millisecond
)

// stallBackoff returns the timed-park duration for the given
// consecutive-miss count: the first timed park (misses ==
// parkRetryLimit) waits backoffBase, each further miss doubles it, and
// the wait saturates at backoffCap. Short first waits keep the reaction
// time to freshly stealable work low; the exponential cap keeps a
// worker staring at genuinely untakeable work from burning the cores
// running it.
func stallBackoff(misses int) time.Duration {
	k := misses - parkRetryLimit
	switch {
	case k < 0:
		k = 0
	case k >= 6: // backoffBase<<6 already exceeds the cap
		return backoffCap
	}
	d := backoffBase << uint(k)
	if d > backoffCap {
		return backoffCap
	}
	return d
}

// park publishes the worker as idle, rechecks for work (closing the
// publish/recheck race against enqueuers), and sleeps until woken — or,
// when unstealable work is backlogged elsewhere, for an exponentially
// growing backoff.
func (rt *Runtime) park(w *worker, misses int) {
	// Drop any stale wake token first: a timed park that expired on its
	// own, or the early recheck return below, leaves a deposited token
	// behind, and that token would end the next genuine park instantly —
	// one spurious park/unpark round-trip. Draining here cannot lose a
	// wakeup, because every token sender publishes its condition (queue
	// count, scope count, fault-event index, drain request) before
	// depositing, and the rechecks after setParked observe those
	// conditions afresh.
	select {
	case <-w.wake:
	default:
	}
	rt.setParked(w.id, true)
	defer rt.setParked(w.id, false)
	if rt.elastic && w.drainReq.Load() != 0 {
		return // the loop retires the worker at its top
	}
	queued := rt.queuedTotal.Load() > 0
	if queued && misses < parkRetryLimit {
		return // work appeared between the failed take and publishing
	}
	start := time.Now()
	if queued {
		rt.timedPark(w, stallBackoff(misses))
	} else {
		select {
		case <-w.wake:
		case <-rt.done:
		case <-rt.stopc:
		}
	}
	w.idleNS += time.Since(start).Nanoseconds()
}

// timedPark sleeps until a wake token, shutdown, or the deadline d,
// reusing the worker's timer — a fresh time.After channel per park
// would allocate on what is a hot path for stalled workers.
func (rt *Runtime) timedPark(w *worker, d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	fired := false
	select {
	case <-w.wake:
	case <-rt.done:
	case <-rt.stopc:
	case <-w.timer.C:
		fired = true
	}
	if !fired && !w.timer.Stop() {
		<-w.timer.C // the timer fired anyway; drain for the next Reset
	}
}

func (rt *Runtime) setParked(id int, on bool) {
	bit := uint64(1) << uint(id)
	for {
		old := rt.parked.Load()
		var next uint64
		if on {
			next = old | bit
		} else {
			next = old &^ bit
		}
		if rt.parked.CompareAndSwap(old, next) {
			return
		}
	}
}

// wakeWorker hands worker i a wake token if none is pending, reporting
// whether one was actually deposited.
func (rt *Runtime) wakeWorker(i int) bool {
	select {
	case rt.workers[i].wake <- struct{}{}:
		return true
	default:
		return false
	}
}

// wakeTargets notifies every worker in the bitmask whose parked bit is
// set — the direct "your queue just got work" notification (the analog
// of the simulator's NotifyProc), uncounted like the simulator's.
//
// A token is deposited only for parked workers, which cannot lose a
// wakeup: a parking worker publishes its bit before re-reading the
// queue count, and an enqueuer bumps the queue count before reading the
// mask (both sequentially consistent atomics) — so either the parker
// sees the new work and returns, or the enqueuer sees the bit.
func (rt *Runtime) wakeTargets(targets uint64) {
	m := targets & rt.parked.Load()
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		rt.wakeWorker(i)
	}
}

// wakePolicy applies the two-level wake scheme after work was enqueued:
// while the machine-wide backlog is shallow only the first wakeFanout
// parked workers are woken (targeted), falling back to waking every
// parked worker once queues back up (broadcast). Counters are bumped
// once per call and only when at least one token was actually
// deposited — an empty parked mask or all-full token channels wake
// nobody and count nothing. Attribution is to the enqueueing worker's
// row (the simulator charges the target server; totals remain
// comparable, documented in DESIGN.md §9).
func (rt *Runtime) wakePolicy(ctr *perfmon.Counters) {
	if rt.pol.DisableStealing {
		return
	}
	mask := rt.parked.Load()
	if mask == 0 {
		return
	}
	broadcast := rt.queuedTotal.Load() > wakeFanout
	deposited, attempted := 0, 0
	for mask != 0 {
		if !broadcast && attempted >= wakeFanout {
			break
		}
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		attempted++
		if rt.wakeWorker(i) {
			deposited++
		}
	}
	if deposited == 0 {
		return
	}
	if broadcast {
		ctr.BroadcastWakes++
	} else {
		ctr.TargetedWakes++
	}
}

// wakeAfterEnqueue notifies the target worker directly, then applies
// the machine-wide wake policy — the per-insert composition used by
// every single-task enqueue path (SpawnN batches call wakeTargets once
// over the whole target set and wakePolicy once per batch instead).
func (rt *Runtime) wakeAfterEnqueue(target, from int) {
	rt.wakeTargets(1 << uint(target))
	rt.wakePolicy(&rt.cfg.Mon.Per[from])
}
