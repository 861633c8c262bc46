package native

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// TestRetryDelayShape pins the backoff shape: first retry waits Backoff,
// each further retry doubles, the cap clamps, and huge attempt counts
// must not overflow.
func TestRetryDelayShape(t *testing.T) {
	r := fault.RetryPolicy{MaxAttempts: 10, Backoff: 1000, MaxBackoff: 8000}
	want := []int64{1000, 2000, 4000, 8000, 8000}
	for i, w := range want {
		if got := r.Delay(i + 1); got != w {
			t.Fatalf("delay(%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := r.Delay(1 << 20); got != 8000 {
		t.Fatalf("delay(huge) = %d, want cap 8000", got)
	}
}

// TestSlowdownStallCounted arms a slowdown and a stall due at t=0 and
// checks both are applied exactly once, on the right workers' rows.
func TestSlowdownStallCounted(t *testing.T) {
	p := &fault.Plan{}
	p.Slow(0, 0, 4, 300_000)
	p.Stall(1, 0, 100_000)
	rt, mon := testRuntime(t, 2, func(cfg *Config) { cfg.Faults = p })
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 40; i++ {
				c.Spawn("t", core.Affinity{}, nil, func(*Ctx) {
					ran.Add(1)
					time.Sleep(20 * time.Microsecond)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 40 {
		t.Fatalf("ran %d tasks, want 40", ran.Load())
	}
	if got := mon.Total().FaultEvents; got != 2 {
		t.Fatalf("FaultEvents = %d, want 2 (one slowdown + one stall)", got)
	}
	if mon.Per[0].FaultEvents != 1 || mon.Per[1].FaultEvents != 1 {
		t.Fatalf("per-worker FaultEvents = [%d %d], want [1 1]",
			mon.Per[0].FaultEvents, mon.Per[1].FaultEvents)
	}
}

// TestRetireDrainsAndSurvives fails one worker mid-run under mixed
// affinity load: every task still runs exactly once, sets never split,
// and the dead worker's queues end (and stay) empty.
func TestRetireDrainsAndSurvives(t *testing.T) {
	const procs = 4
	p := &fault.Plan{}
	p.Fail(1, 400_000) // 400µs into a multi-ms run
	rt, mon := testRuntime(t, procs, func(cfg *Config) { cfg.Faults = p })
	const spawners = 4
	const perSpawner = 100
	var ran [spawners * perSpawner]int32
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < spawners; i++ {
				i := i
				c.Spawn("spawner", core.Affinity{Kind: core.AffProcessor, Processor: i % procs}, nil, func(c *Ctx) {
					for j := 0; j < perSpawner; j++ {
						k := i*perSpawner + j
						var aff core.Affinity
						switch j % 3 {
						case 0:
							aff = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + j%6*4096)}
						case 1:
							aff = core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + j%8*4096)}
						}
						c.Spawn("leaf", aff, nil, func(*Ctx) {
							atomic.AddInt32(&ran[k], 1)
							time.Sleep(30 * time.Microsecond)
						})
					}
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rt.isDead(1) {
		t.Fatalf("worker 1 did not retire (run too short for the plan?)")
	}
	for k := range ran {
		if ran[k] != 1 {
			t.Fatalf("task %d ran %d times", k, ran[k])
		}
	}
	if rt.SetSplits() != 0 {
		t.Fatalf("SetSplits = %d, want 0", rt.SetSplits())
	}
	w := rt.workers[1]
	if w.deq.size() != 0 || w.q.Plain.Len() != 0 || w.queued.Load() != 0 || w.stealable.Load() != 0 {
		t.Fatalf("dead worker queues not empty: deq=%d pinned=%d queued=%d stealable=%d",
			w.deq.size(), w.q.Plain.Len(), w.queued.Load(), w.stealable.Load())
	}
	for s := range w.q.Slots {
		if w.q.Slots[s].Len() != 0 {
			t.Fatalf("dead worker slot %d still holds %d tasks", s, w.q.Slots[s].Len())
		}
	}
	if got := mon.Total().FaultEvents; got < 1 {
		t.Fatalf("FaultEvents = %d, want >= 1 (the proc-fail)", got)
	}
}

// TestRerouteToNearestAlive pins the reroute rule the engines share: a
// task whose placement target is a dead worker lands on the nearest
// survivor (core.Topo.NearestAlive), whatever its class — as the
// simulator's Place and Enqueue do. Worker 5 of 8 (two clusters of four)
// is killed before anything is spawned, and stealing is off, so each
// task runs where it was inserted. In every case task i targets worker
// i: processor affinity names it, Base mode's round robin and a new
// set's home both start at worker 0.
func TestRerouteToNearestAlive(t *testing.T) {
	const procs, victim = 8, 5
	for _, tc := range []struct {
		name string
		base bool
		aff  func(i int) core.Affinity
	}{
		{"processor", false, func(i int) core.Affinity { return core.Affinity{Kind: core.AffProcessor, Processor: i} }},
		{"base", true, func(int) core.Affinity { return core.Affinity{} }},
		{"new-set", false, func(i int) core.Affinity { return core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + i*4096)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, _ := testRuntime(t, procs, func(cfg *Config) {
				cfg.Faults = (&fault.Plan{}).Fail(victim, 0)
				cfg.Pol.IgnoreHints = tc.base
				cfg.Pol.DisableStealing = true
			})
			var ranOn [procs]atomic.Int32
			err := rt.Run(func(c *Ctx) {
				for deadline := time.Now().Add(5 * time.Second); !rt.isDead(victim); {
					if time.Now().After(deadline) {
						t.Errorf("worker %d never retired", victim)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				c.WaitFor(func() {
					for i := 0; i < procs; i++ {
						i := i
						c.Spawn("t", tc.aff(i), nil, func(c *Ctx) { ranOn[i].Store(int32(c.ProcID())) })
					}
				})
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			dead := rt.deadSet()
			for i := range ranOn {
				if got, want := int(ranOn[i].Load()), rt.topo.NearestAlive(i, dead); got != want {
					t.Errorf("task %d (target %d) ran on worker %d, want %d", i, i, got, want)
				}
			}
		})
	}
}

// TestFlakyWindowRetries pins launches to a flaky worker: every strike
// must be retried onto a survivor and the run must still complete with
// every task run exactly once.
func TestFlakyWindowRetries(t *testing.T) {
	p := &fault.Plan{}
	p.Flaky(1, 0, 1_000_000) // worker 1 aborts all fresh launches for 1ms
	rt, mon := testRuntime(t, 2, func(cfg *Config) {
		cfg.Faults = p
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 1000, Backoff: 300_000, MaxBackoff: 600_000}
	})
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 10; i++ {
				c.Spawn("pinned", core.Affinity{Kind: core.AffProcessor, Processor: 1}, nil, func(*Ctx) {
					ran.Add(1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d tasks, want 10", ran.Load())
	}
	total := mon.Total()
	if total.Retries == 0 {
		t.Fatalf("Retries = 0, want > 0 (launches on P1 abort during the window)")
	}
	if total.GaveUp != 0 {
		t.Fatalf("GaveUp = %d, want 0", total.GaveUp)
	}
	if total.FaultEvents == 0 {
		t.Fatalf("FaultEvents = 0, want the flaky window counted")
	}
}

// TestInjectedAbortWithoutRetryStopsRun: with no retry policy the first
// transient abort fails the run with a typed *fault.TaskAbort.
func TestInjectedAbortWithoutRetryStopsRun(t *testing.T) {
	p := &fault.Plan{}
	p.FailTask("victim", 0)
	rt, mon := testRuntime(t, 2, func(cfg *Config) { cfg.Faults = p })
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("victim", core.Affinity{}, nil, func(*Ctx) {})
		})
	})
	var ta *fault.TaskAbort
	if !errors.As(err, &ta) {
		t.Fatalf("Run = %v, want *fault.TaskAbort", err)
	}
	if ta.Task != "victim" || ta.Attempts != 1 {
		t.Fatalf("TaskAbort = %+v, want Task=victim Attempts=1", ta)
	}
	if mon.Total().GaveUp != 1 {
		t.Fatalf("GaveUp = %d, want 1", mon.Total().GaveUp)
	}
}

// TestInjectedAbortWithRetrySucceeds: the same plan under a retry
// policy re-places the launch and the run completes.
func TestInjectedAbortWithRetrySucceeds(t *testing.T) {
	p := &fault.Plan{}
	p.FailTask("victim", 0)
	p.FailTask("victim", 0) // two strikes against the same spawn
	rt, mon := testRuntime(t, 2, func(cfg *Config) {
		cfg.Faults = p
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 5, Backoff: 1000, MaxBackoff: 64_000}
	})
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("victim", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) })
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("victim ran %d times, want exactly 1", ran.Load())
	}
	if got := mon.Total().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

// TestInjectedPanicIsTyped: a planted panic surfaces as *fault.TaskFailure
// with the Injected marker, never as a retry.
func TestInjectedPanicIsTyped(t *testing.T) {
	p := &fault.Plan{}
	p.PanicTask("boom", 0)
	rt, _ := testRuntime(t, 2, func(cfg *Config) {
		cfg.Faults = p
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 5, Backoff: 1000, MaxBackoff: 64_000}
	})
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("boom", core.Affinity{}, nil, func(*Ctx) {})
		})
	})
	var tf *fault.TaskFailure
	if !errors.As(err, &tf) {
		t.Fatalf("Run = %v, want *fault.TaskFailure", err)
	}
	if !tf.Injected || tf.Task != "boom" {
		t.Fatalf("TaskFailure = %+v, want Injected boom", tf)
	}
}

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

// TestNoProgressWatchdogUnhangsCondWait: a task parked forever on a
// condition variable would hang Run; the watchdog must stop the run
// with a typed *fault.NoProgress carrying a queue snapshot, and the
// blocked worker must unwind.
func TestNoProgressWatchdogUnhangsCondWait(t *testing.T) {
	rt, _ := testRuntime(t, 2, func(cfg *Config) { cfg.NoProgressNS = 5_000_000 })
	m := NewMonitor()
	cv := &Cond{}
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("waiter", core.Affinity{}, nil, func(c *Ctx) {
				c.Lock(m)
				c.Wait(cv, m) // never signalled
				c.Unlock(m)
			})
		})
	})
	var np *fault.NoProgress
	if !errors.As(err, &np) {
		t.Fatalf("Run = %v, want *fault.NoProgress", err)
	}
	if np.CycleLimit != 5_000_000 || np.LiveTasks == 0 {
		t.Fatalf("NoProgress = %+v, want CycleLimit=5000000 and live tasks", np)
	}
	if np.Snapshot == "" {
		t.Fatalf("NoProgress carries no queue snapshot")
	}
}

// TestArmedRunWithNoFaultsIsClean: arming retries + deadline + watchdog
// without any fault plan must not perturb a healthy run or count any
// robustness events.
func TestArmedRunWithNoFaultsIsClean(t *testing.T) {
	rt, mon := testRuntime(t, 4, func(cfg *Config) {
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 4, Backoff: 1000, MaxBackoff: 64_000}
		cfg.DeadlineNS = 30_000_000_000
		cfg.NoProgressNS = 2_000_000_000
	})
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
	total := mon.Total()
	if total.FaultEvents != 0 || total.Redistributed != 0 || total.Retries != 0 || total.GaveUp != 0 {
		t.Fatalf("healthy armed run counted robustness events: faults=%d redistributed=%d retries=%d gaveup=%d",
			total.FaultEvents, total.Redistributed, total.Retries, total.GaveUp)
	}
}
