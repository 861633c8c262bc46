package apps

import (
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

// tinySizes keep the end-to-end registry runs fast.
var tinySizes = map[string]int{
	"ocean":      64,  // N (divisible by 32 regions)
	"locusroute": 4,   // wires per region
	"pancho":     12,  // grid
	"blockcho":   64,  // N (2×2 blocks of 32)
	"barneshut":  256, // bodies (divisible by 64 groups)
	"gauss":      32,  // N
	"phaseflip":  60,  // steps (wave re-derived)
}

func TestRegistryNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("registered apps = %v", names)
	}
	for _, n := range names {
		app, ok := Lookup(n)
		if !ok || app.Name != n {
			t.Fatalf("lookup %q failed", n)
		}
		if len(app.Variants) < 2 {
			t.Fatalf("%s has %d variants", n, len(app.Variants))
		}
		if app.Variants[0] != "Base" {
			t.Fatalf("%s first variant %q, want Base", n, app.Variants[0])
		}
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Fatal("lookup of unknown app succeeded")
	}
}

func TestRegistryRunsEveryAppEndToEnd(t *testing.T) {
	for _, name := range Names() {
		app, _ := Lookup(name)
		size := tinySizes[name]
		ser, err := app.RunSerial(size)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if ser.Cycles <= 0 || ser.Verify == "" {
			t.Fatalf("%s serial result %+v", name, ser)
		}
		for _, variant := range app.Variants {
			res, err := app.Run(4, variant, size)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			if res.Cycles <= 0 {
				t.Fatalf("%s/%s: no cycles", name, variant)
			}
			if res.Report.Total.TasksRun == 0 {
				t.Fatalf("%s/%s: no tasks ran", name, variant)
			}
		}
	}
}

func TestRegistryRejectsUnknownVariant(t *testing.T) {
	for _, name := range Names() {
		app, _ := Lookup(name)
		_, err := app.Run(2, "NoSuchVariant", tinySizes[name])
		if err == nil || !strings.Contains(err.Error(), "variant") {
			t.Fatalf("%s accepted bogus variant (err=%v)", name, err)
		}
	}
}

// TestRunOnRefusesADroppedKnob: a variant whose row sets a
// construction-time knob cannot run on a runtime built without it. The
// parent ran ocean Distr here with its hints honoured — Distr+Aff's
// cycle count — and reported no error.
func TestRunOnRefusesADroppedKnob(t *testing.T) {
	app, _ := Lookup("ocean")
	rt, err := cool.NewRuntime(cool.Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.RunOn(rt, "Distr", tinySizes["ocean"])
	if err == nil || !strings.Contains(err.Error(), "ocean/Distr") || !strings.Contains(err.Error(), "RunCfg") {
		t.Fatalf("RunOn(default runtime, Distr) = %v, want an error naming ocean/Distr and RunCfg", err)
	}
	// The refusal left the runtime unused: the served variant still runs on it.
	if _, err := app.RunOn(rt, "Distr+Aff", tinySizes["ocean"]); err != nil {
		t.Fatal(err)
	}
}

// TestColdAndWarmRunTheSameProgram: for every app × variant on the
// simulator, RunCfg and RunOn on a runtime built with the variant's
// knobs are the same run, cycle for cycle; the declared names are the
// ones that resolve; and what does not belong is rejected by both doors.
func TestColdAndWarmRunTheSameProgram(t *testing.T) {
	cfg := cool.Config{Processors: 4}
	for _, name := range Names() {
		app, _ := Lookup(name)
		size := tinySizes[name]
		if len(app.Variants) != len(app.Rows) {
			t.Fatalf("%s: %d variant names for %d rows", name, len(app.Variants), len(app.Rows))
		}
		for i, variant := range app.Variants {
			row := app.Rows[i]
			if row.Name != variant {
				t.Fatalf("%s: variant %d is %q, its row says %q", name, i, variant, row.Name)
			}
			cold, err := app.RunCfg(cfg, variant, size)
			if err != nil {
				t.Fatal(err)
			}
			built := cfg
			built.Sched.IgnoreHints, built.Sched.ClusterStealingOnly = row.IgnoreHints, row.ClusterStealingOnly
			rt, err := cool.NewRuntime(built)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := app.RunOn(rt, variant, size)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Cycles != warm.Cycles || cold.Verify != warm.Verify {
				t.Errorf("%s/%s: RunCfg %d cycles %q, RunOn %d cycles %q",
					name, variant, cold.Cycles, cold.Verify, warm.Cycles, warm.Verify)
			}
		}
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.RunOn(rt, "NoSuchVariant", size); err == nil || !strings.Contains(err.Error(), `no variant "NoSuchVariant"`) {
			t.Errorf("%s: RunOn accepted a bogus variant (err=%v)", name, err)
		}
		if !CatalogHasPrepare(name) {
			continue
		}
		served := app.Variants[app.Served]
		if _, err := app.RunOnPrepared(rt, served, size, "bogus"); err == nil {
			t.Errorf("%s: a foreign Prepare handle was accepted", name)
		}
		other, err := app.Prepare(size + 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.RunOnPrepared(rt, served, size, other); err == nil {
			t.Errorf("%s: a handle prepared for another size was accepted", name)
		}
	}
}

// TestNativeCountsTheSimulatorsWork: the ComputeCycles counter is the
// native backend's record of the work the program declared, so every app
// at its smoke preset must report the same total on both backends, at
// P=1 and at P=2.
func TestNativeCountsTheSimulatorsWork(t *testing.T) {
	for _, name := range Names() {
		app, _ := Lookup(name)
		served := app.Variants[app.Served]
		for _, procs := range []int{1, 2} {
			var compute [2]int64
			for i, b := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
				res, err := app.RunCfg(cool.Config{Processors: procs, Backend: b}, served, app.Sizes["smoke"])
				if err != nil {
					t.Fatalf("%s P=%d %v: %v", name, procs, b, err)
				}
				compute[i] = res.Report.Total.ComputeCycles
			}
			if compute[0] == 0 || compute[0] != compute[1] {
				t.Errorf("%s P=%d: ComputeCycles sim %d, native %d", name, procs, compute[0], compute[1])
			}
		}
	}
}

// TestDiffVerify: verify strings match field by field, ignored keys
// aside, and a missing field is a difference.
func TestDiffVerify(t *testing.T) {
	cases := []struct {
		want, got string
		ignore    map[string]bool
		same      bool
	}{
		{"checksum=1.5 tasks=10", "checksum=1.5 tasks=10", nil, true},
		{"checksum=1.5 tasks=10", "checksum=1.6 tasks=10", nil, false},
		{"cost=5 consistent=true", "cost=9 consistent=true", map[string]bool{"cost": true}, true},
		{"cost=5 consistent=true", "cost=5 consistent=false", map[string]bool{"cost": true}, false},
		{"a=1 b=2", "a=1", nil, false},
	}
	for i, tc := range cases {
		if got := DiffVerify(tc.want, tc.got, tc.ignore); (got == "") != tc.same {
			t.Errorf("case %d: diff = %q, want same=%v", i, got, tc.same)
		}
	}
}
