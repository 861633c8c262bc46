package sim

import (
	"errors"
	"testing"

	"github.com/coolrts/cool/internal/fault"
)

// abortDisp extends the fifo test dispatcher with the launch-abort
// protocol the COOL scheduler implements: fresh launches consult
// LaunchShouldAbort; an aborted launch is retried after a fixed backoff
// until the attempt budget is exhausted, at which point the run fails.
type abortDisp struct {
	fifoDisp
	max     int   // launch attempts allowed per task (0 = none, first abort is fatal)
	backoff int64 // cycles between attempts
	gaveUp  bool
}

func (d *abortDisp) Dispatch(p *Proc) *Task {
	if len(d.queue) == 0 {
		return nil
	}
	t := d.queue[0]
	d.queue = d.queue[1:]
	if !d.eng.LaunchShouldAbort(t, p) {
		return t
	}
	if t.LaunchAborts() > d.max {
		d.gaveUp = true
		d.eng.FailRun(&fault.TaskAbort{Task: t.Name, Proc: p.ID, Time: p.Clock, Attempts: t.LaunchAborts()})
		return nil
	}
	d.eng.At(p.Clock+d.backoff, func() { d.add(t) })
	d.eng.Redispatch(p)
	return nil
}

func newAbortEngine(t *testing.T, procs, max int) (*Engine, *abortDisp) {
	t.Helper()
	e := New(procs, 1000)
	d := &abortDisp{max: max, backoff: 200}
	d.eng = e
	e.SetDispatcher(d)
	return e, d
}

func TestInjectedAbortsAreConsumedAndRetried(t *testing.T) {
	e, d := newAbortEngine(t, 1, 5)
	e.SetInjector(fault.NewInjector(new(fault.Plan).FailTask("w", 0).FailTask("w", 0), 1)) // stack a second failed attempt on the same spawn
	var tasks []*Task
	for i := 0; i < 3; i++ {
		tk := e.NewTask("w", 0, func(c *Ctx) { c.Charge(100) })
		tasks = append(tasks, tk)
		d.add(tk)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tasks[0].LaunchAborts(); got != 2 {
		t.Fatalf("spawn 0 aborted %d launches, want 2", got)
	}
	for i, tk := range tasks[1:] {
		if tk.LaunchAborts() != 0 {
			t.Fatalf("spawn %d aborted %d launches, want 0", i+1, tk.LaunchAborts())
		}
	}
}

func TestAbortWithoutRetryBudgetFailsRun(t *testing.T) {
	e, d := newAbortEngine(t, 1, 0)
	e.SetInjector(fault.NewInjector(new(fault.Plan).FailTask("w", 0), 1))
	d.add(e.NewTask("w", 0, func(c *Ctx) { c.Charge(100) }))
	err := e.Run()
	var ta *fault.TaskAbort
	if !errors.As(err, &ta) {
		t.Fatalf("err = %v (%T), want *fault.TaskAbort", err, err)
	}
	if ta.Task != "w" || ta.Attempts != 1 {
		t.Fatalf("abort = %+v, want task w after 1 attempt", ta)
	}
	if !d.gaveUp {
		t.Fatal("dispatcher never gave up")
	}
}

func TestFlakyWindowAbortsFreshLaunches(t *testing.T) {
	e, d := newAbortEngine(t, 1, 8)
	e.SetInjector(fault.NewInjector(new(fault.Plan).Flaky(0, 0, 500), 1))
	tk := e.NewTask("w", 0, func(c *Ctx) { c.Charge(100) })
	d.add(tk)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Launches at 0, 200, 400 abort (in-window); the one at 600 runs.
	if got := tk.LaunchAborts(); got != 3 {
		t.Fatalf("aborted %d launches, want 3", got)
	}
	if got := e.Procs[0].Clock; got != 700 {
		t.Fatalf("clock = %d, want 700", got)
	}
}

func TestContinuationsAreNeverAborted(t *testing.T) {
	// The flaky window opens after the task started; resuming the blocked
	// continuation inside the window must not abort (a partially executed
	// body cannot be re-run). Budget 0 makes any abort fatal.
	e, d := newAbortEngine(t, 1, 0)
	e.SetInjector(fault.NewInjector(new(fault.Plan).Flaky(0, 500, 1500), 1))
	woke := false
	tk := e.NewTask("w", 0, func(c *Ctx) {
		c.Charge(300)
		c.Block()
		woke = true
		c.Charge(100)
	})
	d.add(tk)
	e.At(600, func() {
		e.Unblock(tk, 600)
		d.add(tk)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke || tk.LaunchAborts() != 0 {
		t.Fatalf("woke=%v aborts=%d, want resumed continuation with no aborts", woke, tk.LaunchAborts())
	}
}

func TestDeadlineStopsOverBudgetRun(t *testing.T) {
	e, d := newTestEngine(t, 2)
	e.SetDeadline(10_000)
	var stuck *Task
	stuck = e.NewTask("stuck", 0, func(c *Ctx) {
		c.Charge(10)
		c.Block() // never unblocked
	})
	d.add(stuck)
	d.add(e.NewTask("spin", 0, func(c *Ctx) {
		for {
			c.Charge(100)
		}
	}))
	err := e.Run()
	var de *fault.DeadlineExceeded
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *fault.DeadlineExceeded", err, err)
	}
	if de.Deadline != 10_000 || de.LiveTasks != 2 || len(de.Clocks) != 2 {
		t.Fatalf("deadline error = %+v", de)
	}
	if de.BlockedTasks != 1 || len(de.Waits) != 1 || de.Waits[0].Task != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", de.Waits)
	}
}

func TestDeadlineUnreachedLeavesRunUntouched(t *testing.T) {
	run := func(deadline int64) int64 {
		e, d := newTestEngine(t, 2)
		if deadline > 0 {
			e.SetDeadline(deadline)
		}
		for i := 0; i < 8; i++ {
			d.add(e.NewTask("w", 0, func(c *Ctx) { c.Charge(777) }))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.MaxClock()
	}
	if a, b := run(0), run(1_000_000); a != b {
		t.Fatalf("an unreached deadline changed the run: %d vs %d", a, b)
	}
}

func TestAbortedRunsAreDeterministic(t *testing.T) {
	run := func() []int64 {
		e, d := newAbortEngine(t, 4, 6)
		e.SetInjector(fault.NewInjector(new(fault.Plan).Flaky(1, 0, 900).FailTask("w", 3), 4))
		for i := 0; i < 16; i++ {
			d.add(e.NewTask("w", 0, func(c *Ctx) { c.Charge(777) }))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		clocks := make([]int64, 4)
		for i, p := range e.Procs {
			clocks[i] = p.Clock
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at P%d: %d vs %d", i, a[i], b[i])
		}
	}
}
