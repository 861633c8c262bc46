package sim

import (
	"runtime"
	"testing"
)

// TestNoGoroutineLeakAfterDeadlock verifies that parked coroutines are
// killed when a run ends abnormally. Teardown is synchronous, so every
// goroutine a run started is gone by the time Run returns (the count may
// still fall below the baseline as an earlier test's runner exits).
func TestNoGoroutineLeakAfterDeadlock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := New(2, 1000)
		d := &fifoDisp{eng: e}
		e.SetDispatcher(d)
		for j := 0; j < 4; j++ {
			d.add(e.NewTask("stuck", 0, func(c *Ctx) {
				c.Charge(10)
				c.Block() // never unblocked
			}))
		}
		if err := e.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Fatalf("run %d: goroutines %d after Run, want at most %d", i, got, baseline)
		}
	}
}

// TestNoGoroutineLeakAfterPanic verifies the same for failing tasks.
func TestNoGoroutineLeakAfterPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := New(2, 1000)
		d := &fifoDisp{eng: e}
		e.SetDispatcher(d)
		d.add(e.NewTask("sleeper", 0, func(c *Ctx) {
			c.Charge(10)
			c.Block() // parked when the failure hits
		}))
		d.add(e.NewTask("boom", 0, func(c *Ctx) {
			c.Charge(20)
			panic("fail")
		}))
		if err := e.Run(); err == nil {
			t.Fatal("expected failure")
		}
		if got := runtime.NumGoroutine(); got > baseline {
			t.Fatalf("run %d: goroutines %d after Run, want at most %d", i, got, baseline)
		}
	}
}

// TestSyncPointOrdersEvents verifies that a task running ahead within its
// quantum yields at a SyncPoint when earlier events are pending.
func TestSyncPointOrdersEvents(t *testing.T) {
	e := New(2, 100000) // huge quantum: only SyncPoint can interleave
	d := &fifoDisp{eng: e}
	e.SetDispatcher(d)
	var order []string
	d.add(e.NewTask("ahead", 0, func(c *Ctx) {
		c.Charge(5000) // run far ahead of the other task's start
		c.SyncPoint()  // must let the earlier dispatch run first
		order = append(order, "ahead-after-sync")
	}))
	d.add(e.NewTask("behind", 0, func(c *Ctx) {
		c.Charge(10)
		order = append(order, "behind")
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "behind" {
		t.Fatalf("order = %v; SyncPoint did not yield to earlier events", order)
	}
}
