package xcheck

import (
	"hash/fnv"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// faultRun is one pinned simulator run under a generated fault plan.
type faultRun struct {
	app    string
	mode   string // see goldenFaultRun
	seed   int64
	plan   uint64 // FNV-64a of the plan's BuilderString
	cycles int64
	tasks  int64
	faults int64
	redist int64
	err    string
}

// goldenFaultRun runs one pinned configuration on the simulator at P=8
// (smoke size) and reads the counters off the runtime, so a run that
// fails still reports what it did before it stopped. mode "chaos" runs
// the fault arm's plan, "deadline" the same plan under a 200k cycle
// deadline, and "fault" a six-event RandomFaultPlan.
func goldenFaultRun(t *testing.T, app apps.App, mode string, seed int64) faultRun {
	t.Helper()
	size, err := apps.CatalogSize(app.Name, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	plan := cool.RandomFaultPlan(seed, 8, 2, 6)
	if mode != "fault" {
		plan = faultPlan(seed, 8)
	}
	var rt *cool.Runtime
	restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
	cfg := cool.Config{Processors: 8, Faults: plan}
	if mode == "deadline" {
		cfg.Deadline = 200_000
	}
	_, runErr := app.RunCfg(cfg, app.Variants[len(app.Variants)-1], size)
	restore()
	if rt == nil {
		t.Fatalf("%s seed %d: no runtime built (%v)", app.Name, seed, runErr)
	}
	h := fnv.New64a()
	h.Write([]byte(plan.BuilderString()))
	rep := rt.Report()
	got := faultRun{app: app.Name, mode: mode, seed: seed, plan: h.Sum64(),
		cycles: rep.Cycles, tasks: rep.Total.TasksRun, faults: rep.Total.FaultEvents,
		redist: rep.Total.Redistributed}
	if runErr != nil {
		got.err = runErr.Error()
	}
	return got
}

// TestFaultGolden pins exact simulator results under generated fault
// plans on gauss, pancho and ocean: the fault arm's plans (seeds
// 1-8; seeds 1-2 again under a deadline) and six-event fault plans
// (seeds 1-4).
// Every plan's builder form, the cycles, the tasks run, the fault and
// redistribution counts, and the error text must repeat exactly: the
// fault layer may be restructured only if none of these move.
func TestFaultGolden(t *testing.T) {
	golden := []faultRun{
		{app: "gauss", mode: "chaos", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 498081, tasks: 1129, faults: 3, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 1142676, tasks: 1129, faults: 4, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 3, plan: 0x48e6c4717ab6fa5f, cycles: 573924, tasks: 1129, faults: 5, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 1129, faults: 6, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 5, plan: 0x8a45ffdf8ebb0b4a, cycles: 352107, tasks: 1129, faults: 2, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 6, plan: 0xf21cbea56571b735, cycles: 133457, tasks: 1129, faults: 3, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 7, plan: 0x592fd5dacc6c1387, cycles: 1470750, tasks: 1129, faults: 4, redist: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 8, plan: 0x439bf1c6035881a4, cycles: 1176680, tasks: 1129, faults: 5, redist: 0, err: ""},
		{app: "gauss", mode: "deadline", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 498081, tasks: 1129, faults: 3, redist: 0, err: ""},
		{app: "gauss", mode: "deadline", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 1142676, tasks: 1129, faults: 4, redist: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 498081, tasks: 1129, faults: 6, redist: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 1129, faults: 6, redist: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 1129, faults: 6, redist: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 1129, faults: 6, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 498081, tasks: 169, faults: 3, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 1142676, tasks: 169, faults: 4, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 3, plan: 0x48e6c4717ab6fa5f, cycles: 573924, tasks: 169, faults: 5, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 169, faults: 6, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 5, plan: 0x8a45ffdf8ebb0b4a, cycles: 419990, tasks: 169, faults: 2, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 6, plan: 0xf21cbea56571b735, cycles: 351020, tasks: 169, faults: 3, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 7, plan: 0x592fd5dacc6c1387, cycles: 1470750, tasks: 169, faults: 4, redist: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 8, plan: 0x439bf1c6035881a4, cycles: 1176680, tasks: 169, faults: 5, redist: 0, err: ""},
		{app: "pancho", mode: "deadline", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 201543, tasks: 101, faults: 0, redist: 0, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: deadline 200000 exceeded at t=200216 with 6 live task(s), 1 blocked; queues=[0 1 0 0 0 0 0 0]\n  task \"main\" waits on scope (5 task(s) outstanding)"},
		{app: "pancho", mode: "deadline", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 203176, tasks: 91, faults: 1, redist: 0, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: deadline 200000 exceeded at t=203176 with 2 live task(s), 1 blocked; queues=[0 0 0 0 0 0 0 0]\n  task \"main\" waits on scope (1 task(s) outstanding)"},
		{app: "pancho", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 498081, tasks: 169, faults: 6, redist: 1, err: ""},
		{app: "pancho", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 169, faults: 6, redist: 0, err: ""},
		{app: "pancho", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 169, faults: 6, redist: 0, err: ""},
		{app: "pancho", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 169, faults: 6, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 1070666, tasks: 769, faults: 3, redist: 1, err: ""},
		{app: "ocean", mode: "chaos", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 1142676, tasks: 769, faults: 4, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 3, plan: 0x48e6c4717ab6fa5f, cycles: 931396, tasks: 769, faults: 5, redist: 1, err: ""},
		{app: "ocean", mode: "chaos", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 769, faults: 6, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 5, plan: 0x8a45ffdf8ebb0b4a, cycles: 704950, tasks: 769, faults: 2, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 6, plan: 0xf21cbea56571b735, cycles: 584233, tasks: 769, faults: 3, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 7, plan: 0x592fd5dacc6c1387, cycles: 1470750, tasks: 769, faults: 4, redist: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 8, plan: 0x439bf1c6035881a4, cycles: 1176680, tasks: 769, faults: 5, redist: 0, err: ""},
		{app: "ocean", mode: "deadline", seed: 1, plan: 0x8de5fa0212cd3f14, cycles: 201413, tasks: 225, faults: 0, redist: 0, err: "ocean/Distr+Aff P=8: cool: deadline 200000 exceeded at t=200038 with 3 live task(s), 1 blocked; queues=[0 0 0 0 0 0 0 0]\n  task \"main\" waits on scope (2 task(s) outstanding)"},
		{app: "ocean", mode: "deadline", seed: 2, plan: 0xc96adf49b8c5bcdc, cycles: 210360, tasks: 215, faults: 1, redist: 0, err: "ocean/Distr+Aff P=8: cool: deadline 200000 exceeded at t=200249 with 19 live task(s), 1 blocked; queues=[0 0 0 4 0 0 0 6]\n  task \"main\" waits on scope (18 task(s) outstanding)"},
		{app: "ocean", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 1069285, tasks: 769, faults: 6, redist: 10, err: ""},
		{app: "ocean", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 769, faults: 6, redist: 0, err: ""},
		{app: "ocean", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 769, faults: 6, redist: 1, err: ""},
		{app: "ocean", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 769, faults: 6, redist: 0, err: ""},
	}
	i := 0
	for _, name := range []string{"gauss", "pancho", "ocean"} {
		app := lookup(t, name)
		for _, m := range []struct {
			mode  string
			seeds int64
		}{{"chaos", 8}, {"deadline", 2}, {"fault", 4}} {
			for seed := int64(1); seed <= m.seeds; seed++ {
				got := goldenFaultRun(t, app, m.mode, seed)
				if i >= len(golden) {
					t.Errorf("row %d not in the golden table: %#v", i, got)
				} else if got != golden[i] {
					t.Errorf("row %d:\n got %#v\nwant %#v", i, got, golden[i])
				}
				i++
			}
		}
	}
	if i != len(golden) {
		t.Errorf("ran %d rows, golden has %d", i, len(golden))
	}
}
