package native

import (
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// This file stops runs: the stop flag and its unwind sentinel, and the
// timekeeper goroutine that delivers retries, wakes workers with due
// fault events, and enforces the deadline and the no-progress watchdog.

// stopUnwind is the panic sentinel used to unwind a worker goroutine
// blocked inside a task body (waitfor helping loop, condition wait)
// when the run is stopped by a deadline, watchdog, or retry exhaustion.
// execute's recovery recognizes and swallows it.
type stopUnwind struct{}

// stopped reports whether the run has been aborted.
func (rt *Runtime) stopped() bool { return rt.stopping.Load() }

// stop aborts the run with err (first failure wins): workers unwind at
// their next dispatch point or park, and Run returns err.
func (rt *Runtime) stop(err error) {
	rt.recordFailure(err)
	rt.stopOnce.Do(func() {
		rt.stopping.Store(true)
		close(rt.stopc)
	})
}

// queueDepths returns the tasks queued per worker (dead workers report
// -1) — the progress snapshot embedded in deadline and watchdog errors.
func (rt *Runtime) queueDepths() []int {
	return rt.topo.QueueDepths(rt.deadSet(), func(i int) int { return int(rt.workers[i].queued.Load()) })
}

// timekeeperTick is how often the timekeeper samples the clock. Fault
// event times in chaos plans range from tens of microseconds to a few
// milliseconds; a 200µs tick delivers retries and fires deadlines with
// enough resolution without burning a core.
const timekeeperTick = 200 * time.Microsecond

// timekeeper is the run's one control goroutine, started by Run when
// anything time-driven is armed (faults, retries, a deadline, the
// watchdog). Per tick it delivers due retries, wakes workers that have
// due timed fault events (so an idle worker still retires on schedule),
// and stops over-budget or hung runs with the typed deadline/no-progress
// errors.
// It exits when the run drains, stops, or loses its last worker.
func (rt *Runtime) timekeeper() {
	defer rt.tkDone.Done()
	tick := time.NewTicker(timekeeperTick)
	defer tick.Stop()
	var lastCompleted int64
	lastProgress := time.Now()
	for {
		select {
		case <-rt.done:
			return
		case <-rt.stopc:
			return
		case <-rt.poolEmpty:
			return // Run is returning
		case <-tick.C:
		}
		now := rt.nowNS()
		for {
			it, ok := rt.retries.popDue(now)
			if !ok {
				break
			}
			rt.deliverRetry(it)
		}
		// Wake workers whose next timed fault event is due: a parked
		// worker applies its events at the top of its loop.
		for _, w := range rt.workers {
			fv := w.fev
			if fv == nil || rt.isDead(w.id) {
				continue
			}
			if i := int(fv.idx.Load()); i < len(fv.pending) && fv.pending[i].At <= now {
				rt.wakeWorker(w.id)
			}
		}
		if rt.deadlineNS > 0 && now >= rt.deadlineNS && rt.live.Load() > 0 {
			rt.stop(&fault.DeadlineExceeded{
				Deadline:    rt.deadlineNS,
				Time:        now,
				LiveTasks:   int(rt.live.Load()),
				QueueDepths: rt.queueDepths(),
			})
			return
		}
		if rt.noProgressNS > 0 {
			if c := rt.completed.Load(); c != lastCompleted {
				lastCompleted = c
				lastProgress = time.Now()
			} else if time.Since(lastProgress).Nanoseconds() >= rt.noProgressNS && rt.live.Load() > 0 {
				rt.stop(&fault.NoProgress{
					CycleLimit: rt.noProgressNS,
					Time:       now,
					LiveTasks:  int(rt.live.Load()),
					Snapshot:   core.FormatQueues(rt.queueDepths()),
				})
				return
			}
		}
	}
}
