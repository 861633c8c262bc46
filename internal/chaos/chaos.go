// Package chaos implements the self-checking chaos-campaign harness:
// seeded random fault plans (processor slowdowns, stalls, permanent
// failures, memory degradation, flaky windows, transient task failures)
// run against the registered applications, differentially checked
// against a fault-free reference run. Failing campaigns auto-shrink to
// a minimal reproducing fault plan, printed as copy-pasteable builder
// calls.
//
// Campaigns run on either backend. On the simulator both the faulted
// run and its reference are bit-deterministic. On the native backend
// the reference is a fault-free native run and the differential check
// is necessarily looser: tokens that depend on execution order may
// differ between any two native schedules (same relaxation as the
// xcheck harness), so those are skipped at P>1 even before faults are
// injected. Task-count equality and typed-failure classification hold
// on both backends.
package chaos

import (
	"errors"
	"fmt"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// Campaign is one seeded chaos experiment against one application. The
// plan is a pure function of the seed, so campaigns replay exactly.
type Campaign struct {
	App      string
	Variant  string
	Procs    int
	Size     int
	Seed     int64
	Plan     *cool.FaultPlan
	Retry    *cool.RetryPolicy
	Deadline int64
	// Backend selects the execution engine the campaign (and its
	// fault-free reference) runs on. Native campaigns read the plan's
	// cycle quantities as wall-clock nanoseconds.
	Backend cool.Backend
	// Churn marks a campaign whose plan may grow and drain the worker
	// pool mid-run; the oracle reserves MaxProcessors headroom for it.
	// Native backend only.
	Churn bool
	// Adapt arms the adaptive affinity controller on the faulted run
	// (the fault-free reference stays static). The controller may only
	// reshape the schedule, so every differential invariant must hold
	// with it flipping policy mid-campaign. Simulator only.
	Adapt bool
}

// NewCampaign derives a deterministic campaign from a seed against the
// app's most affinity-aware variant. size 0 selects the app's default
// workload.
func NewCampaign(app apps.App, seed int64, procs, size int) Campaign {
	c := Campaign{
		App:     app.Name,
		Variant: app.Variants[len(app.Variants)-1],
		Procs:   procs,
		Size:    size,
		Seed:    seed,
	}
	clusters := (procs + 3) / 4
	n := 2 + int(seed%5)
	c.Plan = cool.RandomChaosPlan(seed, procs, clusters, n, app.TaskNames)
	// Generous budget: a flaky processor sits idle (its launches abort)
	// and keeps stealing retried work back, so the exponential backoff
	// must be able to outlast the longest flaky window.
	c.Retry = &cool.RetryPolicy{MaxAttempts: 12, Backoff: 500}
	return c
}

// NewChurnCampaign is NewCampaign with elastic pool churn in the fault
// vocabulary: generated plans may also grow the pool (AddWorker) and
// request planned drains of workers mid-run. Campaigns built this way
// must run on the native backend — the simulator rejects churn events.
func NewChurnCampaign(app apps.App, seed int64, procs, size int) Campaign {
	c := NewCampaign(app, seed, procs, size)
	clusters := (procs + 3) / 4
	n := 2 + int(seed%5)
	c.Plan = cool.RandomChaosChurnPlan(seed, procs, clusters, n, app.TaskNames)
	c.Backend = cool.BackendNative
	c.Churn = true
	return c
}

// Verdict classifies a campaign outcome.
type Verdict int

const (
	// OK: the run completed and its results match the fault-free run.
	OK Verdict = iota
	// Degraded: the run failed gracefully with an expected typed error
	// (retry budget exhausted, deadline exceeded). Not a bug: the
	// injected faults were severe enough that giving up was the policy.
	Degraded
	// Mismatch: the run completed but its numeric results differ from
	// the fault-free run — a real correctness bug.
	Mismatch
	// Leak: the run completed but ran a different number of tasks than
	// the fault-free run — work was lost or duplicated.
	Leak
	// Unexpected: the run failed with an error chaos should never cause
	// (deadlock, watchdog, non-injected panic).
	Unexpected
)

func (v Verdict) String() string {
	switch v {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Mismatch:
		return "mismatch"
	case Leak:
		return "leak"
	case Unexpected:
		return "unexpected"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Bad reports whether the verdict indicates a runtime bug worth
// shrinking and reporting (as opposed to a clean or gracefully degraded
// run).
func (v Verdict) Bad() bool { return v == Mismatch || v == Leak || v == Unexpected }

// Outcome is the classified result of one campaign run.
type Outcome struct {
	Verdict Verdict
	Detail  string // first mismatching token, or the error text
}

// ref is one cached fault-free reference run.
type ref struct {
	verify string
	tasks  int64
	err    error
}

// Oracle runs campaigns and differentially checks them against cached
// fault-free reference runs (one per app/variant/procs/size).
type Oracle struct {
	refs map[string]ref
}

// NewOracle returns an oracle with an empty reference cache.
func NewOracle() *Oracle { return &Oracle{refs: map[string]ref{}} }

func (o *Oracle) healthy(app apps.App, c Campaign) (ref, error) {
	key := fmt.Sprintf("%s/%s/p%d/s%d/%v", c.App, c.Variant, c.Procs, c.Size, c.Backend)
	if r, ok := o.refs[key]; ok {
		return r, r.err
	}
	res, err := app.RunCfg(cool.Config{Processors: c.Procs, Backend: c.Backend}, c.Variant, c.Size)
	r := ref{res.Verify, res.Report.Total.TasksRun, err}
	o.refs[key] = r
	return r, err
}

// Run executes one campaign and classifies the outcome against the
// fault-free reference.
func (o *Oracle) Run(app apps.App, c Campaign) Outcome {
	refRun, err := o.healthy(app, c)
	if err != nil {
		return Outcome{Unexpected, fmt.Sprintf("fault-free reference failed: %v", err)}
	}
	cfg := cool.Config{
		Processors: c.Procs,
		Faults:     c.Plan,
		Retry:      c.Retry,
		Deadline:   c.Deadline,
		Backend:    c.Backend,
	}
	if c.Adapt {
		cfg.Adapt = &cool.AdaptPolicy{}
	}
	if c.Churn && c.Backend == cool.BackendNative {
		// Reserve one spare slot per AddWorker event so every planned
		// add succeeds; a shrunk plan reserves proportionally less.
		cfg.MaxProcessors = c.Procs + c.Plan.ChurnAdds()
	}
	res, err := app.RunCfg(cfg, c.Variant, c.Size)
	if err != nil {
		var ta *cool.TaskAbortError
		var de *cool.DeadlineExceededError
		if errors.As(err, &ta) || errors.As(err, &de) {
			return Outcome{Degraded, err.Error()}
		}
		return Outcome{Unexpected, err.Error()}
	}
	if d := apps.DiffVerify(refRun.verify, res.Verify, app.ScheduleTokens); d != "" {
		return Outcome{Mismatch, d}
	}
	if res.Report.Total.TasksRun != refRun.tasks {
		return Outcome{Leak, fmt.Sprintf("tasks run: %d faulted vs %d fault-free",
			res.Report.Total.TasksRun, refRun.tasks)}
	}
	return Outcome{OK, ""}
}

// Shrink greedily minimizes a failing campaign: repeatedly drop any
// single fault event whose removal keeps the campaign failing, until a
// fixpoint. The result is 1-minimal — removing any remaining event
// makes the failure disappear — and, like every campaign, replays
// deterministically.
func (o *Oracle) Shrink(app apps.App, c Campaign) (Campaign, Outcome) {
	out := o.Run(app, c)
	if !out.Verdict.Bad() {
		return c, out
	}
	for {
		shrunk := false
		for i := 0; i < c.Plan.Len(); i++ {
			cand := c
			cand.Plan = c.Plan.WithoutEvent(i)
			if co := o.Run(app, cand); co.Verdict.Bad() {
				c, out = cand, co
				shrunk = true
				break // rescan the smaller plan from the start
			}
		}
		if !shrunk {
			return c, out
		}
	}
}
