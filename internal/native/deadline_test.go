package native

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// TestDeadlineStopsRun: a run that cannot finish inside the wall-clock
// deadline returns a typed *fault.DeadlineExceeded instead of running on.
func TestDeadlineStopsRun(t *testing.T) {
	rt, _ := testRuntime(t, 2, func(cfg *Config) { cfg.DeadlineNS = 500_000 })
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 2; i++ {
				c.Spawn("slow", core.Affinity{}, nil, func(*Ctx) {
					time.Sleep(20 * time.Millisecond)
				})
			}
		})
	})
	var de *fault.DeadlineExceeded
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *fault.DeadlineExceeded", err)
	}
	if de.Deadline != 500_000 || de.Time < 500_000 {
		t.Fatalf("DeadlineExceeded = %+v, want Deadline=500000 and Time >= it", de)
	}
	if len(de.QueueDepths) != 2 {
		t.Fatalf("QueueDepths = %v, want 2 entries", de.QueueDepths)
	}
}

// TestDeadlineUnhangsCondWait: a mutex-function task parked forever on
// a condition variable would hang Run; the deadline must stop the run
// with a typed *fault.DeadlineExceeded and unwind the blocked worker.
// Wait released the task's monitor, so the unwind must not unlock it
// again (a double unlock is a fatal error) and leaves it free.
func TestDeadlineUnhangsCondWait(t *testing.T) {
	rt, _ := testRuntime(t, 2, func(cfg *Config) { cfg.DeadlineNS = 5_000_000 })
	m := NewMonitor()
	cv := &Cond{}
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("waiter", core.Affinity{}, m, func(c *Ctx) {
				c.Wait(cv, m) // never signalled
			})
		})
	})
	var de *fault.DeadlineExceeded
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *fault.DeadlineExceeded", err)
	}
	if de.Deadline != 5_000_000 || de.LiveTasks == 0 {
		t.Fatalf("DeadlineExceeded = %+v, want Deadline=5000000 and live tasks", de)
	}
	if !m.mu.TryLock() {
		t.Fatal("the waiter's monitor is still locked after the unwind")
	}
}

// TestArmedRunWithNoFaultsIsClean: arming a deadline the run never
// reaches must not perturb a healthy run.
func TestArmedRunWithNoFaultsIsClean(t *testing.T) {
	rt, _ := testRuntime(t, 4, func(cfg *Config) { cfg.DeadlineNS = 30_000_000_000 })
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 200; i++ {
				aff := core.Affinity{}
				if i%2 == 0 {
					aff = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + i%8*4096)}
				}
				c.Spawn("t", aff, nil, func(*Ctx) { ran.Add(1) })
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 200 {
		t.Fatalf("ran %d tasks, want 200", ran.Load())
	}
}
