package cool_test

import (
	"testing"

	cool "github.com/coolrts/cool"
)

// setReuseCycles runs a synthetic task-affinity workload on the
// simulator: one task per entry of order, in the task-affinity set the
// entry names, each streaming its set's 32 KB object — so tasks of one
// set hit in cache only when serviced back to back.
func setReuseCycles(t *testing.T, procs, sets int, order []int, pol cool.SchedPolicy) int64 {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Sched: pol})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]*cool.F64, sets)
	for s := range objs {
		objs[s] = rt.NewF64Pages(4096, 0)
	}
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for _, s := range order {
				obj := objs[s]
				ctx.Spawn("work", func(c *cool.Ctx) {
					for i := 0; i < obj.Len(); i += 512 {
						c.ReadF64Range(obj, i, i+512)
						c.Compute(256)
					}
				}, cool.TaskAffinity(obj.Base))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt.ElapsedCycles()
}

// TestSyntheticAblations reproduces the two synthetic ablations
// EXPERIMENTS.md quotes beside `coolbench -exp queuearray/stealpolicy`
// (A1's many-active-sets case and A3). Simulated cycles are exact, so
// the recorded figures are asserted as such; a deliberate change to the
// simulator re-records them here and in EXPERIMENTS.md.
func TestSyntheticAblations(t *testing.T) {
	// A1 (paper §5): 16 concurrently active sets x 8 tasks on 2
	// processors, no stealing, spawned round by round so slot assignment
	// — not arrival order — decides service order. With one queue the
	// sets interleave and every task misses on its object; with enough
	// slots each set is serviced back to back.
	var rounds []int
	for r := 0; r < 8; r++ {
		for s := 0; s < 16; s++ {
			rounds = append(rounds, s)
		}
	}
	for _, c := range []struct {
		slots int
		want  int64
	}{{1, 2041172}, {4, 2041172}, {64, 363030}} {
		got := setReuseCycles(t, 2, 16, rounds, cool.SchedPolicy{QueueArraySize: c.slots, NoStealing: true})
		if got != c.want {
			t.Errorf("A1 %d slots: %d cycles, recorded %d", c.slots, got, c.want)
		}
	}
	// A3 (paper §4.2): 8 sets of unequal size (2+3s tasks) on 4
	// processors, spawned set by set. Moving a whole set keeps its cache
	// reuse on the thief but moves more work at once; here single-task
	// steals balance better — set stealing is a locality/balance
	// tradeoff.
	var uneven []int
	for s := 0; s < 8; s++ {
		for k := 0; k < 2+3*s; k++ {
			uneven = append(uneven, s)
		}
	}
	if got := setReuseCycles(t, 4, 8, uneven, cool.SchedPolicy{}); got != 276383 {
		t.Errorf("A3 whole-set stealing: %d cycles, recorded 276383", got)
	}
	if got := setReuseCycles(t, 4, 8, uneven, cool.SchedPolicy{NoSetStealing: true}); got != 205495 {
		t.Errorf("A3 single-task steals only: %d cycles, recorded 205495", got)
	}
}
