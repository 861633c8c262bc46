package cool_test

import (
	"errors"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/machine"
)

// TestConfigOptionBackendMatrix drives every Config option through
// NewRuntime on both backends and pins the support matrix: Machine,
// which describes the simulated machine, and the simulator-only fault
// plans (Faults) are rejected natively, and each rejection names its
// option. Everything else, Deadline included, must construct on both
// backends.
func TestConfigOptionBackendMatrix(t *testing.T) {
	dash := machine.DASH(4)
	cases := []struct {
		option  string // "" = the bare baseline config
		mut     func(*cool.Config)
		simOnly bool // true: native must reject with this option's name
	}{
		{"", func(c *cool.Config) {}, false},
		{"Sched", func(c *cool.Config) { c.Sched = cool.SchedPolicy{ClusterStealingOnly: true} }, false},
		{"TraceCapacity", func(c *cool.Config) { c.TraceCapacity = 64 }, false},
		{"Faults", func(c *cool.Config) { c.Faults = cool.NewFaultPlan().StallProcessor(1, 1000, 100) }, true},
		{"Deadline", func(c *cool.Config) { c.Deadline = 10_000_000_000 }, false},
		{"Machine", func(c *cool.Config) { c.Machine = &dash }, true},
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
				case err != nil:
					t.Fatalf("NewRuntime: %v, want success", err)
				}
			})
		}
	}
}
