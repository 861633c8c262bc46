package cool

// This file is the warm-reuse surface that the serving layer
// (internal/serve, cmd/coolserve) is built on: Reset re-arms a runtime
// for another Run without rebuilding it.

// Reset returns a runtime that has finished a Run to its pre-Run state
// so it can Run again — the warm-reuse path that makes a long-lived
// serving process cheaper than building a fresh runtime per job.
//
// What survives a reset, and why reuse wins: on the native backend the
// worker structures stay warm (task-record freelists, sized scratch
// buffers, victim rings, the shard table's capacity), and only the
// per-run state — counters, channels, set homes — is re-armed. On the
// simulator the whole machine is re-armed in place: every cache way
// invalidated, the directory's pages kept and cleared, the memory
// modules idle and healthy, the address space rewound, the engine's
// processors parked at clock zero with an empty event heap, the
// scheduler's queues empty, and the fault plan queued again; nothing the
// reset allocates grows with the processor count. The perfmon counters
// are zeroed, so the next run's Report starts from a clean slate and
// never bleeds a previous job's counts (FaultEvents among them). Either
// way a reset runtime runs the next job exactly as a fresh NewRuntime
// with the same Config does, and the CaptureRuntime hook sees it as it
// sees a new one.
//
// The arrays survive too, and a job's arrays and handles belong to the
// runtime once Reset is called: the arrays the allocation API handed
// out (NewF64, NewF64Pages, NewI64, NewI64Pages and Ctx.NewF64/NewI64)
// go onto free lists keyed by exact element count, and a later
// allocation of the same count gets one of them, cleared, handle and
// all. So a job must not read or write its arrays, or keep their
// handles, past Reset. The lists wait on the warm-state shelf (warm.go):
// a runtime that sits idle through two garbage collections holds none
// of them.
//
// What does NOT survive: every simulated address handed out by the
// allocation API. The arena bump pointers rewind, so pre-reset
// addresses will be re-issued to the next run's allocations — a job
// must allocate what it uses within its own run.
//
// Reset must not race with Run or with the allocation API. A native
// run that failed (deadline, panic) may have unwound
// with task records still queued; Reset refuses with the run's error
// and the caller must build a fresh runtime. On the simulator Reset
// re-arms the machine whatever the run did, so it fails only when the
// Config's fault plan has since been made invalid.
func (rt *Runtime) Reset() error {
	if rt.backend == BackendNative {
		if err := rt.nat.Reset(); err != nil {
			return err
		}
	} else {
		rt.eng.Reset()
		rt.caches.Reset()
		rt.sched.Reset()
		if err := rt.armSim(); err != nil {
			return err
		}
	}
	rt.spaceMu.Lock()
	rt.space.Reset()
	rt.spaceMu.Unlock()
	rt.mon.Reset()
	rt.reclaimArrays() // only once the reset has succeeded: a refused one reclaims nothing
	rt.ran = false
	rt.setupErr = nil
	if captureHook != nil {
		captureHook(rt)
	}
	return nil
}
