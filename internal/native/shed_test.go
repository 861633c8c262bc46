package native

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// TestShedExpiredDeadline spawns tasks whose deadline has already
// passed: the SLO layer must shed every one at dispatch — counted as
// deadline misses, completing their scope — while in-deadline siblings
// run normally.
func TestShedExpiredDeadline(t *testing.T) {
	rt, mon := testRuntime(t, 2, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{}
	})
	const n = 50
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < n; i++ {
				// 1ns after start: expired by dispatch time.
				c.rt.spawn(c, "late", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, 0, 1)
				c.rt.spawn(c, "fresh", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, 0, time.Hour.Nanoseconds())
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if total.DeadlineMisses != n || total.TasksShed != n {
		t.Fatalf("DeadlineMisses=%d TasksShed=%d, want %d each", total.DeadlineMisses, total.TasksShed, n)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d (only the in-deadline half)", ran.Load(), n)
	}
	if rt.QueuedTasks() != 0 {
		t.Fatalf("%d tasks still queued", rt.QueuedTasks())
	}
}

// TestShedPriorityFloor drives a single worker far past the backlog
// watermark with a mix of priority classes: the floor controller must
// shed from the lowest class first, and class 7 must never be shed on
// priority grounds — every priority-7 task runs even under maximal
// overload.
func TestShedPriorityFloor(t *testing.T) {
	rt, mon := testRuntime(t, 1, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{QueueHighWater: 1}
	})
	const low, high = 400, 40
	var ranLow, ranHigh atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < low; i++ {
				c.rt.spawn(c, "low", core.Affinity{}, nil, func(*Ctx) {
					ranLow.Add(1)
					time.Sleep(100 * time.Microsecond)
				}, nil, -1, 0, 0)
			}
			for i := 0; i < high; i++ {
				c.rt.spawn(c, "high", core.Affinity{}, nil, func(*Ctx) {
					ranHigh.Add(1)
					time.Sleep(100 * time.Microsecond)
				}, nil, -1, 7, 0)
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if ranHigh.Load() != high {
		t.Fatalf("only %d of %d priority-7 tasks ran; class 7 must never be shed", ranHigh.Load(), high)
	}
	if total.TasksShed == 0 {
		t.Fatal("overload shed nothing: the floor never engaged")
	}
	if got := ranLow.Load() + total.TasksShed; got != low {
		t.Fatalf("low-priority ran %d + shed %d = %d, want %d (every task runs or sheds exactly once)",
			ranLow.Load(), total.TasksShed, got, low)
	}
	if total.DeadlineMisses != 0 {
		t.Fatalf("DeadlineMisses=%d on a deadline-free run", total.DeadlineMisses)
	}
}

// TestShedRetryDefers arms RetryShed: below-floor tasks re-queue with
// backoff instead of dropping, so once the backlog clears they still
// run — shedding degrades latency, not completeness, when the retry
// budget suffices.
func TestShedRetryDefers(t *testing.T) {
	rt, mon := testRuntime(t, 1, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{QueueHighWater: 1, RetryShed: true}
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 100, Backoff: 100_000}
	})
	const n = 200
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < n; i++ {
				c.rt.spawn(c, "work", core.Affinity{}, nil, func(*Ctx) {
					ran.Add(1)
					time.Sleep(50 * time.Microsecond)
				}, nil, -1, int8(i%2), 0)
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if got := ran.Load() + total.TasksShed; got != n {
		t.Fatalf("ran %d + shed %d = %d, want %d", ran.Load(), total.TasksShed, got, n)
	}
	if ran.Load() < n/2 {
		t.Fatalf("only %d of %d tasks ran; RetryShed should defer, not drop, most work", ran.Load(), n)
	}
}
