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

// TestAdaptiveFlipsBothWays runs the full two-phase workload with the
// program flipping the policy itself (Phases+Switch) and asserts, from
// the trace, that every phase ran under the policy that phase wants:
// each phase A (chains and ping-pong) is shorter than under static flat
// stealing, and each phase B (the wave) is shorter than under static
// cluster-only stealing. A phase's makespan is the span of its tasks'
// trace events; the phase barriers keep the phases' events apart.
func TestAdaptiveFlipsBothWays(t *testing.T) {
	const capacity = 1 << 18
	// phases returns each phase's makespan in order: A, B, A, B, ...
	phases := func(v Variant, clusterOnly bool) []int64 {
		t.Helper()
		var rt *cool.Runtime
		restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
		defer restore()
		cfg := cool.Config{Processors: 16, TraceCapacity: capacity}
		cfg.Sched.ClusterStealingOnly = clusterOnly
		if _, err := runCfg(cfg, v.String(), DefaultParams()); err != nil {
			t.Fatal(err)
		}
		evs := rt.TraceEvents()
		if len(evs) >= capacity {
			t.Fatalf("%v: trace filled its %d-event capacity", v, capacity)
		}
		var spans []int64
		var lo, hi int64
		cur := -1 // the phase being measured: 0 is A, 1 is B
		for _, ev := range evs {
			if ev.Task == "main" {
				continue
			}
			ph := 0
			if ev.Task == "wave" {
				ph = 1
			}
			if ph != cur {
				if cur < 0 && ph != 0 {
					t.Fatalf("%v: the run opened with a wave task", v)
				}
				if cur >= 0 {
					spans = append(spans, hi-lo)
				}
				cur, lo, hi = ph, ev.Time, ev.Time
			}
			lo, hi = min(lo, ev.Time), max(hi, ev.Time)
		}
		return append(spans, hi-lo)
	}
	flat, cl, sw := phases(Phases, false), phases(Phases, true), phases(Switch, false)
	t.Logf("phase makespans (A, B, ...): flat %v, cluster-only %v, switch %v", flat, cl, sw)
	if want := 2 * DefaultParams().Rounds; len(flat) != want || len(cl) != want || len(sw) != want {
		t.Fatalf("found %d/%d/%d phases, want %d each", len(flat), len(cl), len(sw), want)
	}
	for i := range sw {
		if i%2 == 0 && sw[i] >= flat[i] {
			t.Errorf("phase %d (A): switch %d cycles, flat %d — cluster-only stealing was not on", i, sw[i], flat[i])
		}
		if i%2 == 1 && sw[i] >= cl[i] {
			t.Errorf("phase %d (B): switch %d cycles, cluster-only %d — cluster-only stealing was not off", i, sw[i], cl[i])
		}
	}
}

// TestPhaseSwitchBeatsStaticArms: the program turning cluster-only
// stealing on for each phase A and off for each phase B (Phases+Switch,
// the paper's §6.3 flag) must beat the better of the two static arms on
// the default workload at P=16, in simulated cycles. Measured 1.3461
// (EXPERIMENTS AD3); the floor sits just under it.
func TestPhaseSwitchBeatsStaticArms(t *testing.T) {
	const procs, floor = 16, 1.33
	cycles := func(v Variant, clusterOnly bool) int64 {
		t.Helper()
		cfg := cool.Config{Processors: procs}
		cfg.Sched.ClusterStealingOnly = clusterOnly
		r, err := runCfg(cfg, v.String(), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	flat, cl, sw := cycles(Phases, false), cycles(Phases, true), cycles(Switch, false)
	ratio := float64(min(flat, cl)) / float64(sw)
	t.Logf("flat %d, cluster-only %d, switch %d cycles: best static / switch = %.4f (AD1's controller: 1.296)",
		flat, cl, sw, ratio)
	if ratio < floor {
		t.Errorf("switch is %.4fx the best static arm, floor %.2f", ratio, floor)
	}
}
