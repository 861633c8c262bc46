package native

import (
	"time"

	"github.com/coolrts/cool/internal/fault"
)

// This file stops runs at the run deadline (Config.DeadlineNS): the stop
// flag, its unwind sentinel, and the goroutine whose one timer fires it.

// stopUnwind is the panic sentinel used to unwind a worker goroutine
// blocked inside a task body (waitfor helping loop, condition wait)
// when the run is stopped at its deadline. execute's recovery
// recognizes and swallows it.
type stopUnwind struct{}

// stopped reports whether the run has been aborted.
func (rt *Runtime) stopped() bool { return rt.stopping.Load() }

// stop aborts the run with err (first failure wins): workers unwind at
// their next dispatch point or park, and Run returns err. Only
// watchDeadline calls it, once per run.
func (rt *Runtime) stop(err error) {
	rt.recordFailure(err)
	rt.stopping.Store(true)
	close(rt.stopc)
}

// queueDepths returns the tasks queued per worker — the progress
// snapshot a deadline error carries.
func (rt *Runtime) queueDepths() []int {
	out := make([]int, len(rt.workers))
	for i, w := range rt.workers {
		out[i] = int(w.queued.Load())
	}
	return out
}

// watchDeadline is started by Run when a deadline is set. One timer
// fires at the deadline; if tasks are still live then, the run stops
// with a *fault.DeadlineExceeded. It exits when the run drains first,
// and Run joins it before returning, so no goroutine or timer outlives
// the run.
func (rt *Runtime) watchDeadline() {
	defer rt.watchDone.Done()
	timer := time.NewTimer(time.Until(rt.start.Add(time.Duration(rt.cfg.DeadlineNS))))
	defer timer.Stop()
	select {
	case <-rt.done:
		return
	case <-timer.C:
	}
	if live := rt.live.Load(); live > 0 {
		rt.stop(&fault.DeadlineExceeded{
			Deadline:    rt.cfg.DeadlineNS,
			Time:        rt.nowNS(),
			LiveTasks:   int(live),
			QueueDepths: rt.queueDepths(),
		})
	}
}
