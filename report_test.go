package cool_test

import (
	"testing"

	cool "github.com/coolrts/cool"
)

// TestCounterSnapshotConsistent asserts Runtime.CounterSnapshot — the
// machine-wide counter read for monitoring — reports the same quantities
// as the full perfmon Report on both backends after a run: the
// cumulative columns match the summed per-processor rows exactly,
// Completed covers every executed or shed task, the queue gauge reads
// zero on a drained machine, and the pool gauge reads the worker count.
func TestCounterSnapshotConsistent(t *testing.T) {
	const procs, tasks = 4, 300
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, procs, tasks)
			rt := lastRuntime
			if rt == nil {
				t.Fatal("capture hook did not observe the runtime")
			}
			s := rt.CounterSnapshot()
			total := r.Total

			cols := []struct {
				name      string
				snap, rep int64
			}{
				{"StealTries", s.StealTries, total.StealTries},
				{"FailedSteals", s.FailedSteals, total.FailedSteals},
				{"StealsLocal", s.StealsLocal, total.StealsLocal},
				{"StealsRemote", s.StealsRemote, total.StealsRemote},
				{"SetSteals", s.SetSteals, total.SetSteals},
				{"TargetedWakes", s.TargetedWakes, total.TargetedWakes},
				{"BroadcastWakes", s.BroadcastWakes, total.BroadcastWakes},
				{"LockContention", s.LockContention, total.LockContention},
				{"DeadlineMisses", s.DeadlineMisses, total.DeadlineMisses},
			}
			for _, c := range cols {
				if c.snap != c.rep {
					t.Errorf("%s: snapshot %d != report %d", c.name, c.snap, c.rep)
				}
			}
			if s.Completed != total.TasksRun+total.DeadlineMisses {
				t.Errorf("Completed = %d, want TasksRun+DeadlineMisses = %d",
					s.Completed, total.TasksRun+total.DeadlineMisses)
			}
			if s.Queued != 0 {
				t.Errorf("Queued = %d after a drained run, want 0", s.Queued)
			}
			if s.Workers != int64(procs) {
				t.Errorf("Workers = %d, want %d", s.Workers, procs)
			}
			if s.Parked < 0 || s.Parked > int64(procs) {
				t.Errorf("Parked = %d outside [0,%d]", s.Parked, procs)
			}
		})
	}
}

// lastRuntime captures the most recent runtime runWorkload constructed,
// via the package capture hook, so tests can reach non-Report accessors.
var lastRuntime *cool.Runtime

func TestMain(m *testing.M) {
	restore := cool.CaptureRuntime(func(rt *cool.Runtime) { lastRuntime = rt })
	defer restore()
	m.Run()
}
