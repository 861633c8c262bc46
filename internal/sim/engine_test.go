package sim

import (
	"errors"
	"strings"
	"testing"

	"github.com/coolrts/cool/internal/fault"
)

// fifoDisp is a trivial global-queue dispatcher for engine tests.
type fifoDisp struct {
	eng   *Engine
	queue []*Task
}

func (d *fifoDisp) Dispatch(p *Proc) *Task {
	if len(d.queue) == 0 {
		return nil
	}
	t := d.queue[0]
	d.queue = d.queue[1:]
	return t
}

func (d *fifoDisp) add(t *Task) {
	d.queue = append(d.queue, t)
	d.eng.NotifyWork(d.eng.Now())
}

func newTestEngine(t *testing.T, procs int) (*Engine, *fifoDisp) {
	t.Helper()
	e := New(procs, 1000)
	d := &fifoDisp{eng: e}
	e.SetDispatcher(d)
	return e, d
}

func TestSingleTaskRuns(t *testing.T) {
	e, d := newTestEngine(t, 1)
	ran := false
	d.add(e.NewTask("t", 0, func(c *Ctx) {
		c.Charge(123)
		ran = true
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run")
	}
	if got := e.Procs[0].Clock; got != 123 {
		t.Fatalf("clock = %d, want 123", got)
	}
}

func TestTasksRunInParallelAcrossProcs(t *testing.T) {
	e, d := newTestEngine(t, 4)
	for i := 0; i < 4; i++ {
		d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(1000) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.MaxClock(); got != 1000 {
		t.Fatalf("MaxClock = %d, want 1000 (perfect parallelism)", got)
	}
	for _, p := range e.Procs {
		if p.Tasks != 1 {
			t.Fatalf("proc %d ran %d tasks, want 1", p.ID, p.Tasks)
		}
	}
}

func TestSerialOnOneProc(t *testing.T) {
	e, d := newTestEngine(t, 1)
	for i := 0; i < 4; i++ {
		d.add(e.NewTask("t", 0, func(c *Ctx) { c.Charge(1000) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.MaxClock(); got != 4000 {
		t.Fatalf("MaxClock = %d, want 4000 (serialized)", got)
	}
}

func TestSpawnFromWithinTask(t *testing.T) {
	e, d := newTestEngine(t, 2)
	var order []string
	d.add(e.NewTask("parent", 0, func(c *Ctx) {
		c.Charge(10)
		order = append(order, "parent")
		d.add(e.NewTask("child", c.Now(), func(c2 *Ctx) {
			c2.Charge(5)
			order = append(order, "child")
		}))
		c.Charge(10)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "parent" || order[1] != "child" {
		t.Fatalf("order = %v", order)
	}
	// Child started at time 10 on the second (idle) processor.
	if got := e.Procs[1].Clock; got != 15 {
		t.Fatalf("proc1 clock = %d, want 15", got)
	}
}

func TestBlockAndUnblock(t *testing.T) {
	e, d := newTestEngine(t, 2)
	var waiter *Task
	woke := false
	waiter = e.NewTask("waiter", 0, func(c *Ctx) {
		c.Charge(10)
		c.Block() // parked until the signaller releases us
		woke = true
		c.Charge(10)
	})
	d.add(waiter)
	d.add(e.NewTask("signaller", 0, func(c *Ctx) {
		c.Charge(100)
		e.Unblock(waiter, c.Now())
		d.add(waiter)
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Fatal("waiter never woke")
	}
	// Waiter resumed at >= time 100 and charged 10 more cycles.
	if got := e.MaxClock(); got < 110 {
		t.Fatalf("MaxClock = %d, want >= 110", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e, d := newTestEngine(t, 1)
	d.add(e.NewTask("stuck", 0, func(c *Ctx) {
		c.Block() // nobody will ever unblock us
	}))
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	var de *fault.Deadlock
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *fault.Deadlock", err)
	}
	if len(de.Waits) != 1 || de.Waits[0].Task != "stuck" {
		t.Fatalf("blocked tasks = %v, want [stuck]", de.Waits)
	}
}

// objSnap is a Snapshotter whose wait edges name the object a blocked
// task waits on, kept in the task's Data.
type objSnap struct{ snapStub }

func (objSnap) WaitEdge(t *Task) fault.WaitEdge {
	return fault.WaitEdge{Task: t.Name, On: "monitor", Object: t.Data.(int64)}
}

// TestDeadlockWaitsAreStable runs the same deadlock thirty times: six
// same-named tasks each end blocked on their own object, three of them
// after one unblock, so the blocked set is built up, torn and rebuilt.
// Every run must report the waits in one order, creation order among
// the same-named tasks.
func TestDeadlockWaitsAreStable(t *testing.T) {
	run := func() []fault.WaitEdge {
		e, d := newTestEngine(t, 2)
		e.SetSnapshot(objSnap{})
		var ws []*Task
		for i := 0; i < 6; i++ {
			w := e.NewTask("waiter", 0, func(c *Ctx) { c.Block(); c.Block() })
			w.Data = int64(100 + i)
			ws = append(ws, w)
			d.add(w)
		}
		d.add(e.NewTask("waker", 0, func(c *Ctx) {
			c.Charge(500)
			for i := 0; i < len(ws); i += 2 {
				e.Unblock(ws[i], c.Now())
				d.add(ws[i])
			}
		}))
		var de *fault.Deadlock
		if err := e.Run(); !errors.As(err, &de) {
			t.Fatalf("err = %v, want *fault.Deadlock", err)
		}
		return de.Waits
	}
	for r := 0; r < 30; r++ {
		waits := run()
		if len(waits) != 6 {
			t.Fatalf("run %d: %d waits, want 6: %v", r, len(waits), waits)
		}
		for i, w := range waits {
			if w.Task != "waiter" || w.Object != int64(100+i) {
				t.Fatalf("run %d: waits %v, want waiters on objects 100..105 in creation order", r, waits)
			}
		}
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	e, d := newTestEngine(t, 1)
	d.add(e.NewTask("boom", 0, func(c *Ctx) {
		c.Charge(77)
		panic("kaboom")
	}))
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
	var tf *fault.TaskFailure
	if !errors.As(err, &tf) {
		t.Fatalf("err = %T, want *fault.TaskFailure", err)
	}
	if tf.Task != "boom" || tf.Proc != 0 || tf.Time != 77 {
		t.Fatalf("failure = %+v, want task boom on P0 at t=77", tf)
	}
}

func TestQuantumInterleaving(t *testing.T) {
	// Two long tasks on two processors must interleave: neither clock
	// should run far ahead of the other at any yield point.
	e := New(2, 100)
	d := &fifoDisp{eng: e}
	e.SetDispatcher(d)
	var maxSkew int64
	probe := func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Charge(100)
			skew := e.Procs[0].Clock - e.Procs[1].Clock
			if skew < 0 {
				skew = -skew
			}
			if skew > maxSkew {
				maxSkew = skew
			}
		}
	}
	d.add(e.NewTask("a", 0, probe))
	d.add(e.NewTask("b", 0, probe))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxSkew > 300 {
		t.Fatalf("processor clocks skewed by %d cycles; quantum interleaving broken", maxSkew)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		e := New(4, 500)
		d := &fifoDisp{eng: e}
		e.SetDispatcher(d)
		for i := 0; i < 20; i++ {
			n := int64(i)
			d.add(e.NewTask("t", 0, func(c *Ctx) {
				c.Charge(100 + 37*n)
				if n%3 == 0 {
					d.add(e.NewTask("sub", c.Now(), func(c2 *Ctx) { c2.Charge(50) }))
				}
			}))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		sum := int64(0)
		for _, p := range e.Procs {
			sum += p.Clock * int64(p.ID+1)
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs differ: %d vs %d", a, b)
	}
}

func TestIdleAccounting(t *testing.T) {
	e, d := newTestEngine(t, 2)
	d.add(e.NewTask("early", 0, func(c *Ctx) {
		c.Charge(500)
		d.add(e.NewTask("late", c.Now(), func(c2 *Ctx) { c2.Charge(10) }))
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// One processor sat idle for ~500 cycles waiting for the late task.
	idle := e.Procs[0].Idle + e.Procs[1].Idle
	if idle < 400 {
		t.Fatalf("idle = %d, want >= 400", idle)
	}
}
