package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"github.com/coolrts/cool/internal/fault"
)

// TestCoroutinesArePooled verifies that the number of coroutines a run
// creates follows the tasks in flight at once, not the tasks it ran.
func TestCoroutinesArePooled(t *testing.T) {
	e, d := newTestEngine(t, 4)
	const n = 10000
	ran := 0
	for i := 0; i < n; i++ {
		d.add(e.NewTask("short", 0, func(c *Ctx) {
			c.Charge(10)
			ran++
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d tasks, want %d", ran, n)
	}
	if got := len(e.coros); got > len(e.Procs) {
		t.Fatalf("%d tasks on %d processors created %d coroutines", n, len(e.Procs), got)
	}
}

// TestCoroutineAfterPanicRunsNextTaskClean drives the engine's own resume
// path by hand, because a failed task ends a Run: the coroutine a
// panicking body gave back must run the next task as that task.
func TestCoroutineAfterPanicRunsNextTaskClean(t *testing.T) {
	e, _ := newTestEngine(t, 2)
	defer e.killRemaining()
	boom := e.NewTask("boom", 0, func(c *Ctx) {
		c.Charge(5)
		panic("kaboom")
	})
	var got *Ctx
	next := e.NewTask("next", 0, func(c *Ctx) {
		got = c
		c.Charge(7)
	})
	e.runOn(e.Procs[0], boom, false)
	if boom.err == nil || !boom.done || len(e.coroFree) != 1 {
		t.Fatalf("boom: err=%v done=%v free=%d, want a failure and its coroutine back in the pool",
			boom.err, boom.done, len(e.coroFree))
	}
	e.runOn(e.Procs[1], next, false)
	if len(e.coros) != 1 {
		t.Fatalf("created %d coroutines, want the panicked one reused", len(e.coros))
	}
	if got == nil || got.Task() != next || got.Task().Name != "next" || got.Proc() != e.Procs[1] {
		t.Fatalf("next ran with ctx %+v, want its own task on P1", got)
	}
	if next.err != nil || !next.done || next.co != nil {
		t.Fatalf("next: err=%v done=%v co=%v, want a clean completion", next.err, next.done, next.co)
	}
	if p := e.Procs[1]; p.Tasks != 1 || p.Clock != 7 {
		t.Fatalf("P1 tasks=%d clock=%d, want 1 and 7", p.Tasks, p.Clock)
	}
}

// TestTeardownUnwindsReusedCoroutine verifies that a deadlock teardown
// kills a body parked on a coroutine an earlier task already used: the
// body unwinds as itself, and the earlier task's result is untouched.
func TestTeardownUnwindsReusedCoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, d := newTestEngine(t, 1)
	first := e.NewTask("first", 0, func(c *Ctx) { c.Charge(10) })
	var unwound string
	stuck := e.NewTask("stuck", 0, func(c *Ctx) {
		defer func() { unwound = c.Task().Name }()
		c.Block() // never unblocked
	})
	d.add(first)
	d.add(stuck)
	var de *fault.Deadlock
	if err := e.Run(); !errors.As(err, &de) || len(de.Waits) != 1 || de.Waits[0].Task != stuck.Name {
		t.Fatalf("err = %v, want a deadlock on stuck", err)
	}
	if len(e.coros) != 1 {
		t.Fatalf("created %d coroutines, want stuck on the one first used", len(e.coros))
	}
	if unwound != "stuck" || !stuck.done || stuck.err != nil {
		t.Fatalf("stuck: unwound=%q done=%v err=%v, want its body unwound silently", unwound, stuck.done, stuck.err)
	}
	if !first.done || first.err != nil || e.Procs[0].Tasks != 1 {
		t.Fatalf("first: done=%v err=%v tasks=%d, want one clean completion", first.done, first.err, e.Procs[0].Tasks)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("goroutines %d after Run, want at most %d", got, baseline)
	}
}

// TestTeardownReachesDetachedAndUnstartedTasks covers the two kinds of
// unfinished task nothing points at when a run ends: one detached from a
// failed processor and dropped by the fail handler, and one never
// dispatched at all.
func TestTeardownReachesDetachedAndUnstartedTasks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, d := newTestEngine(t, 2)
	var detached *Task
	e.SetFailHandler(func(p *Proc, running *Task, now int64) { detached = running })
	unwound := false
	long := e.NewTask("long", 0, func(c *Ctx) {
		defer func() { unwound = true }()
		for i := 0; i < 40; i++ {
			c.Charge(500) // several quanta, so the fault lands mid-task
		}
	})
	d.add(long)
	never := e.NewTask("never", 0, func(c *Ctx) { t.Error("never-dispatched task ran") })
	e.At(1500, func() { e.FailProc(e.Procs[0]) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "2 task(s) never ran to completion") {
		t.Fatalf("err = %v, want both tasks reported unfinished", err)
	}
	if detached != long || !unwound || !long.done {
		t.Fatalf("detached=%v unwound=%v done=%v, want long detached and torn down", detached, unwound, long.done)
	}
	if never.startedCoro || never.done {
		t.Fatalf("never: started=%v done=%v, want untouched", never.startedCoro, never.done)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("goroutines %d after Run, want at most %d", got, baseline)
	}
}

// BenchmarkSwitch measures one engine→task→engine round trip: a single
// task on a one-cycle quantum, so every Charge yields and is resumed.
func BenchmarkSwitch(b *testing.B) {
	e := New(1, 1)
	d := &fifoDisp{eng: e}
	e.SetDispatcher(d)
	d.add(e.NewTask("spin", 0, func(c *Ctx) {
		for i := 0; i < b.N; i++ {
			c.Charge(1)
		}
	}))
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTaskLifecycle measures NewTask → dispatch → done for a chain
// of tasks that each spawn their successor, as application tasks do.
func BenchmarkTaskLifecycle(b *testing.B) {
	e := New(1, 1000)
	d := &fifoDisp{eng: e}
	e.SetDispatcher(d)
	n := 0
	var body func(c *Ctx)
	body = func(c *Ctx) {
		c.Charge(1)
		if n++; n < b.N {
			d.add(e.NewTask("link", c.Now(), body))
		}
	}
	d.add(e.NewTask("link", 0, body))
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
