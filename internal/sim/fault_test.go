package sim

import (
	"errors"
	"testing"

	"github.com/coolrts/cool/internal/fault"
)

func TestSlowdownMultipliesCharges(t *testing.T) {
	e, d := newTestEngine(t, 1)
	e.SlowProc(e.Procs[0], 4, 0)
	d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(1000) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Procs[0].Clock; got != 4000 {
		t.Fatalf("clock = %d, want 4000 (4x slowdown)", got)
	}
}

func TestSlowdownLapsesAfterDuration(t *testing.T) {
	e, d := newTestEngine(t, 1)
	e.SlowProc(e.Procs[0], 4, 400)
	d.add(e.NewTask("t", 0, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Charge(100) // first charge lands at 400, ending the slowdown
		}
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// One 4x charge (0 -> 400), then nine nominal charges.
	if got := e.Procs[0].Clock; got != 400+900 {
		t.Fatalf("clock = %d, want 1300", got)
	}
}

func TestStallFreezesProc(t *testing.T) {
	e, d := newTestEngine(t, 1)
	e.StallProc(e.Procs[0], 500)
	d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(100) }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Procs[0].Clock; got != 600 {
		t.Fatalf("clock = %d, want 600 (500 stall + 100 work)", got)
	}
	if got := e.Procs[0].StalledCycles(); got != 500 {
		t.Fatalf("stalled = %d, want 500", got)
	}
}

func TestFailedProcNeverDispatches(t *testing.T) {
	e, d := newTestEngine(t, 2)
	var handled bool
	e.SetFailHandler(func(p *Proc, running *Task, now int64) {
		handled = true
		if p.ID != 1 || running != nil {
			t.Errorf("handler got P%d running=%v", p.ID, running)
		}
	})
	e.FailProc(e.Procs[1])
	for i := 0; i < 4; i++ {
		d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(100) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !handled {
		t.Fatal("fail handler not invoked")
	}
	if !e.Procs[1].Failed() || e.Procs[1].Tasks != 0 {
		t.Fatalf("failed proc ran %d task(s)", e.Procs[1].Tasks)
	}
	if e.Procs[0].Tasks != 4 {
		t.Fatalf("survivor ran %d task(s), want 4", e.Procs[0].Tasks)
	}
}

func TestFailDetachesRunningTask(t *testing.T) {
	// Failing a processor mid-task hands the running task to the fail
	// handler; re-dispatching it elsewhere resumes the coroutine.
	e, d := newTestEngine(t, 2)
	var moved *Task
	e.SetFailHandler(func(p *Proc, running *Task, now int64) {
		if running == nil {
			t.Error("expected a running task at failure time")
			return
		}
		moved = running
		e.Unblock(running, now)
		d.add(running)
	})
	done := false
	d.add(e.NewTask("long", 0, func(c *Ctx) {
		for i := 0; i < 40; i++ {
			c.Charge(500) // several quanta, so the fault lands mid-task
		}
		done = true
	}))
	e.At(1500, func() { e.FailProc(e.Procs[0]) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if moved == nil || !done {
		t.Fatalf("moved=%v done=%v, want task relocated and finished", moved, done)
	}
	if e.Procs[1].Tasks != 1 {
		t.Fatalf("survivor completed %d task(s), want 1", e.Procs[1].Tasks)
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

func TestFaultedRunsAreDeterministic(t *testing.T) {
	run := func() []int64 {
		e, d := newTestEngine(t, 4)
		e.SlowProc(e.Procs[2], 3, 0)
		e.At(700, func() { e.StallProc(e.Procs[1], 900) })
		e.At(2000, func() { e.FailProc(e.Procs[3]) })
		for i := 0; i < 16; i++ {
			d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(777) }))
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
	a, b := run(), b2(run)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at P%d: %d vs %d", i, a[i], b[i])
		}
	}
}

func b2(f func() []int64) []int64 { return f() }

// snapStub is a Snapshotter with no queue state.
type snapStub struct{}

func (snapStub) QueueDepths() []int              { return nil }
func (snapStub) WaitEdge(t *Task) fault.WaitEdge { return fault.WaitEdge{Task: t.Name} }
