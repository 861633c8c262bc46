package cool

import (
	"fmt"

	"github.com/coolrts/cool/internal/fault"
)

// RetryPolicy governs recovery from transient task-launch failures
// (FaultPlan.FailTask events and FlakyProcessor windows). When a launch
// attempt aborts, the runtime re-places the task on a different server —
// preferring a different cluster from the processor that failed, while
// keeping task-affinity sets on their home so they never split — and
// retries after an exponentially growing backoff in simulated cycles.
// Without a policy (Config.Retry == nil) the first transient abort fails
// the run with a *TaskAbortError. Retries run on the simulator only,
// where fault plans strike: NewRuntime rejects a policy on the native
// backend with *UnsupportedOnNativeError.
//
// Retries are safe because transient aborts strike only at task launch,
// before the body has executed a single operation: a retried task re-runs
// a body that has had no side effects. For the same reason panics are
// never retried — a panic (from application code or a PanicTask
// injection) strikes mid-body, after side effects may have happened, so
// it always surfaces as a *TaskPanicError without consuming retry
// budget.
type RetryPolicy = fault.RetryPolicy

// retryDefaults validates the policy and fills in defaults.
func retryDefaults(p RetryPolicy) (RetryPolicy, error) {
	if p.MaxAttempts < 0 {
		return p, fmt.Errorf("cool: Config.Retry.MaxAttempts must not be negative")
	}
	if p.Backoff < 0 {
		return p, fmt.Errorf("cool: Config.Retry.Backoff must not be negative")
	}
	if p.MaxBackoff < 0 {
		return p, fmt.Errorf("cool: Config.Retry.MaxBackoff must not be negative")
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.Backoff == 0 {
		p.Backoff = 1000
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 64 * p.Backoff
	}
	return p, nil
}
