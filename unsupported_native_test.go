package cool_test

import (
	"errors"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/machine"
)

// TestConfigOptionBackendMatrix drives every Config option through
// NewRuntime on both backends and pins the support matrix: only the
// options whose semantics require the simulated machine itself —
// Machine, CycleLimit, Quantum, Adapt — are rejected natively, and each
// rejection names its option; the elastic pool and the SLO layer
// (MaxProcessors, Shed) construct natively and the simulator refuses
// them. Everything else, including the robustness stack (Faults, Retry,
// Deadline), must construct on both backends.
func TestConfigOptionBackendMatrix(t *testing.T) {
	dash := machine.DASH(4)
	cases := []struct {
		option     string // "" = the bare baseline config
		mut        func(*cool.Config)
		simOnly    bool // true: native must reject with this option's name
		nativeOnly bool // true: the simulator must reject it, naming BackendNative
	}{
		{"", func(c *cool.Config) {}, false, false},
		{"ClusterSize", func(c *cool.Config) { c.ClusterSize = 2 }, false, false},
		{"Sched", func(c *cool.Config) { c.Sched = cool.SchedPolicy{ClusterStealingOnly: true} }, false, false},
		{"Seed", func(c *cool.Config) { c.Seed = 7 }, false, false},
		{"TraceCapacity", func(c *cool.Config) { c.TraceCapacity = 64 }, false, false},
		{"Faults", func(c *cool.Config) { c.Faults = cool.NewFaultPlan().StallProcessor(1, 1000, 100) }, false, false},
		{"Retry", func(c *cool.Config) { c.Retry = &cool.RetryPolicy{MaxAttempts: 3} }, false, false},
		{"Deadline", func(c *cool.Config) { c.Deadline = 10_000_000_000 }, false, false},
		{"Machine", func(c *cool.Config) { c.Machine = &dash }, true, false},
		{"CycleLimit", func(c *cool.Config) { c.CycleLimit = 1_000_000 }, true, false},
		{"Quantum", func(c *cool.Config) { c.Quantum = 500 }, true, false},
		{"Adapt", func(c *cool.Config) { c.Adapt = &cool.AdaptPolicy{} }, true, false},
		{"MaxProcessors", func(c *cool.Config) { c.MaxProcessors = 8 }, false, true},
		{"Shed", func(c *cool.Config) { c.Shed = &cool.ShedPolicy{} }, false, true},
	}
	for _, tc := range cases {
		name := tc.option
		if name == "" {
			name = "baseline"
		}
		for _, be := range backends {
			tc, be := tc, be
			t.Run(name+"/"+be.name, func(t *testing.T) {
				cfg := cool.Config{Processors: 4, Backend: be.b}
				tc.mut(&cfg)
				_, err := cool.NewRuntime(cfg)
				var ue *cool.UnsupportedOnNativeError
				switch {
				case be.b == cool.BackendNative && tc.simOnly:
					if !errors.As(err, &ue) {
						t.Fatalf("NewRuntime = %v, want *UnsupportedOnNativeError", err)
					}
					if ue.Option != tc.option {
						t.Fatalf("rejected option %q, want %q", ue.Option, tc.option)
					}
				case be.b == cool.BackendSim && tc.nativeOnly:
					if err == nil || !strings.Contains(err.Error(), "BackendNative") {
						t.Fatalf("NewRuntime = %v, want a rejection naming BackendNative", err)
					}
				default:
					if err != nil {
						t.Fatalf("NewRuntime: %v, want success", err)
					}
				}
			})
		}
	}
}
