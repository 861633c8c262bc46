package native

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
)

// TestShedExpiredDeadline spawns tasks whose deadline has already
// passed on a runtime with nothing armed: dispatch must shed every one
// — counted as deadline misses, not as run tasks, completing their
// scope — while in-deadline siblings run normally.
func TestShedExpiredDeadline(t *testing.T) {
	rt, mon := testRuntime(t, 2, nil)
	const n = 50
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < n; i++ {
				// 1ns after start: expired by dispatch time.
				c.rt.spawn(c, "late", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, 1)
				c.rt.spawn(c, "fresh", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, time.Hour.Nanoseconds())
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if total.DeadlineMisses != n || total.TasksRun != n+1 {
		t.Fatalf("DeadlineMisses=%d TasksRun=%d, want %d and %d (the fresh half plus main)",
			total.DeadlineMisses, total.TasksRun, n, n+1)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d (only the in-deadline half)", ran.Load(), n)
	}
	if rt.QueuedTasks() != 0 {
		t.Fatalf("%d tasks still queued", rt.QueuedTasks())
	}
}
