package phaseflip

import (
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// result is what the assertions read: the harness's uniform result plus
// the app's evidence.
type result struct {
	harness.Result
	Checksum float64
	Tasks    int64
}

// runCfg goes through the one runner, as the registry does.
func runCfg(cfg cool.Config, variant string, prm Params) (result, error) {
	r, err := Program.Run(variant, prm, cfg, nil, nil)
	if err != nil {
		return result{}, err
	}
	return result{r, float64(r.Evidence.(harness.Checksum)), r.Report.Total.TasksRun}, nil
}

func run(procs int, v Variant, prm Params) (result, error) {
	return runCfg(cool.Config{Processors: procs}, v.String(), prm)
}

func runSerial(prm Params) (result, error) { return runCfg(cool.Config{}, harness.Serial, prm) }

// TestChecksumMatchesSerial pins the workload's determinism: the same
// checksum from the serial reference and from parallel runs of both
// variants at several machine sizes.
func TestChecksumMatchesSerial(t *testing.T) {
	prm := Params{Steps: 40, Wave: 32, Rounds: 2}
	ref, err := runSerial(prm)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4, 16} {
		for i := range Variants {
			v := Variant(i)
			r, err := run(procs, v, prm)
			if err != nil {
				t.Fatalf("P=%d %v: %v", procs, v, err)
			}
			if r.Checksum != ref.Checksum {
				t.Errorf("P=%d %v: checksum %v != serial %v", procs, v, r.Checksum, ref.Checksum)
			}
		}
	}
}

// TestPhasesPreferOppositePolicies is the workload's reason to exist:
// flat stealing must beat cluster-only on the whole run only because
// the phases disagree — cluster-only must win a chains-only run and
// flat must win a wave-only run, on the same machine.
func TestPhasesPreferOppositePolicies(t *testing.T) {
	const procs = 16
	run := func(clusterOnly bool, prm Params) int64 {
		t.Helper()
		cfg := cool.Config{Processors: procs}
		cfg.Sched.ClusterStealingOnly = clusterOnly
		r, err := runCfg(cfg, Phases.String(), prm)
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	chainsOnly := Params{Steps: 120, Wave: 8, Rounds: 1}
	if flat, cl := run(false, chainsOnly), run(true, chainsOnly); cl >= flat {
		t.Errorf("chain phase: cluster-only %d cycles, flat %d — cluster-only should win", cl, flat)
	}
	waveOnly := Params{Steps: 2, Wave: 640, Rounds: 1}
	if flat, cl := run(false, waveOnly), run(true, waveOnly); flat >= cl {
		t.Errorf("wave phase: flat %d cycles, cluster-only %d — flat should win", flat, cl)
	}
}

// TestAdaptiveFlipsBothWays runs the full two-phase workload under the
// controller and asserts it actually flipped cluster-only stealing on
// (phase A's failed-probe storm) and back off (phase B's starvation),
// with every decision carried in the report's trace.
func TestAdaptiveFlipsBothWays(t *testing.T) {
	cfg := cool.Config{
		Processors: 16,
		Adapt:      &cool.AdaptPolicy{Epoch: 20_000},
	}
	var rt *cool.Runtime
	restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
	defer restore()
	r, err := runCfg(cfg, Phases.String(), Params{Steps: 600, Wave: 768, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	var on, off bool
	for _, d := range r.Report.Decisions {
		if d.Knob == "cluster" {
			if d.To != 0 {
				on = true
			} else {
				off = true
			}
		}
	}
	if !on || !off {
		t.Fatalf("controller decisions flipped on=%v off=%v, want both (decisions: %d)",
			on, off, len(r.Report.Decisions))
	}
	// Every decision must reconstruct the final state.
	st, ok := rt.AdaptState()
	init, okInit := rt.AdaptInitialState()
	if !ok || !okInit {
		t.Fatal("AdaptState reports no controller")
	}
	if got := cool.ReplayAdaptDecisions(init, r.Report.Decisions); got != st {
		t.Errorf("replayed state %+v != final state %+v", got, st)
	}
}
