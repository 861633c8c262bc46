package chaos

import (
	"hash/fnv"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// faultRun is one pinned simulator run under a generated fault plan.
type faultRun struct {
	app     string
	mode    string // see goldenFaultRun
	seed    int64
	plan    uint64 // FNV-64a of the plan's BuilderString
	cycles  int64
	tasks   int64
	faults  int64
	redist  int64
	retries int64
	gaveUp  int64
	err     string
}

// goldenFaultRun runs one pinned configuration on the simulator at P=8
// (smoke size) and reads the counters off the runtime, so a run that
// fails still reports what it did before it stopped. mode "chaos" runs
// the campaign's RandomChaosPlan and retry policy, "chaos-noretry" the
// same plan without retries, "deadline" the chaos mode under a 200k
// cycle deadline, and "fault" a six-event RandomFaultPlan.
func goldenFaultRun(t *testing.T, app apps.App, mode string, seed int64) faultRun {
	t.Helper()
	size, err := apps.CatalogSize(app.Name, "smoke")
	if err != nil {
		t.Fatal(err)
	}
	var plan *cool.FaultPlan
	var retry *cool.RetryPolicy
	switch mode {
	case "chaos", "chaos-noretry", "deadline":
		c := NewCampaign(app, seed, 8, size)
		plan = c.Plan
		if mode != "chaos-noretry" {
			retry = c.Retry
		}
	default:
		plan = cool.RandomFaultPlan(seed, 8, 2, 6)
	}
	var rt *cool.Runtime
	restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
	cfg := cool.Config{Processors: 8, Faults: plan, Retry: retry}
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
		redist: rep.Total.Redistributed, retries: rep.Total.Retries, gaveUp: rep.Total.GaveUp}
	if runErr != nil {
		got.err = runErr.Error()
	}
	return got
}

// TestFaultGolden pins exact simulator results under generated fault
// plans on gauss, pancho and ocean: chaos plans (seeds 1-8, with the
// campaign's retry policy; seeds 1-4 again without one, so transient
// aborts end runs; seeds 1-2 under a deadline) and plain fault plans
// (seeds 1-4, no retries).
// Every plan's builder form, the cycles, the tasks run, the fault,
// redistribution, retry and give-up counts, and the error text must
// repeat exactly: the fault layer may be restructured only if none of
// these move.
func TestFaultGolden(t *testing.T) {
	golden := []faultRun{
		{app: "gauss", mode: "chaos", seed: 1, plan: 0xf6cab5af77a2990, cycles: 141823, tasks: 1129, faults: 2, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 2, plan: 0xc61e67574d527725, cycles: 963310, tasks: 1129, faults: 3, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 3, plan: 0xea0f92ca2460ab43, cycles: 1129074, tasks: 1129, faults: 4, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 4, plan: 0xb6225e59f8f36e57, cycles: 707005, tasks: 1129, faults: 5, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 5, plan: 0xc80174616d12d127, cycles: 352107, tasks: 1129, faults: 2, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 6, plan: 0xa1d86cae456bd456, cycles: 133457, tasks: 1129, faults: 3, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 7, plan: 0xdd2f6fad65ab3e9e, cycles: 1305886, tasks: 1129, faults: 4, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos", seed: 8, plan: 0xf4392eafb50c935e, cycles: 1186626, tasks: 1129, faults: 3, redist: 0, retries: 2, gaveUp: 0, err: ""},
		{app: "gauss", mode: "chaos-noretry", seed: 1, plan: 0xf6cab5af77a2990, cycles: 636, tasks: 2, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "gauss/Task+Object P=8: cool: task \"update\" failed transiently on P2 at cycle 280: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "gauss", mode: "chaos-noretry", seed: 2, plan: 0xc61e67574d527725, cycles: 240, tasks: 1, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "gauss/Task+Object P=8: cool: task \"update\" failed transiently on P1 at cycle 180: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "gauss", mode: "chaos-noretry", seed: 3, plan: 0xea0f92ca2460ab43, cycles: 2086, tasks: 7, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "gauss/Task+Object P=8: cool: task \"update\" failed transiently on P7 at cycle 780: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "gauss", mode: "chaos-noretry", seed: 4, plan: 0xb6225e59f8f36e57, cycles: 1268, tasks: 4, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "gauss/Task+Object P=8: cool: task \"update\" failed transiently on P4 at cycle 480: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "gauss", mode: "deadline", seed: 1, plan: 0xf6cab5af77a2990, cycles: 141823, tasks: 1129, faults: 2, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "deadline", seed: 2, plan: 0xc61e67574d527725, cycles: 963310, tasks: 1129, faults: 3, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 498081, tasks: 1129, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 1129, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 1129, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "gauss", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 1129, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 1, plan: 0x1441f2c4584e48da, cycles: 351978, tasks: 169, faults: 2, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 2, plan: 0x4e5890fcaf0dbf33, cycles: 963310, tasks: 169, faults: 3, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 3, plan: 0xea0f92ca2460ab43, cycles: 1129074, tasks: 169, faults: 4, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 4, plan: 0xb6225e59f8f36e57, cycles: 707005, tasks: 169, faults: 5, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 5, plan: 0xc80174616d12d127, cycles: 419990, tasks: 169, faults: 2, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 6, plan: 0xa1d86cae456bd456, cycles: 351020, tasks: 169, faults: 3, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 7, plan: 0xdd2f6fad65ab3e9e, cycles: 1305886, tasks: 169, faults: 4, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos", seed: 8, plan: 0xf4392eafb50c935e, cycles: 1186626, tasks: 169, faults: 3, redist: 0, retries: 2, gaveUp: 0, err: ""},
		{app: "pancho", mode: "chaos-noretry", seed: 1, plan: 0x1441f2c4584e48da, cycles: 6632, tasks: 5, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: task \"complete\" failed transiently on P1 at cycle 5968: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "pancho", mode: "chaos-noretry", seed: 2, plan: 0x4e5890fcaf0dbf33, cycles: 140, tasks: 1, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: task \"complete\" failed transiently on P0 at cycle 140: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "pancho", mode: "chaos-noretry", seed: 3, plan: 0xea0f92ca2460ab43, cycles: 18323, tasks: 10, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: task \"update\" failed transiently on P3 at cycle 18263: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "pancho", mode: "chaos-noretry", seed: 4, plan: 0xb6225e59f8f36e57, cycles: 9365, tasks: 6, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: task \"update\" failed transiently on P2 at cycle 9305: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "pancho", mode: "deadline", seed: 1, plan: 0x1441f2c4584e48da, cycles: 202501, tasks: 101, faults: 0, redist: 0, retries: 1, gaveUp: 0, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: deadline 200000 exceeded at t=201174 with 6 live task(s), 1 blocked; queues=[0 1 0 0 0 0 0 0]\n  task \"main\" waits on scope (5 task(s) outstanding)"},
		{app: "pancho", mode: "deadline", seed: 2, plan: 0x4e5890fcaf0dbf33, cycles: 203259, tasks: 91, faults: 1, redist: 0, retries: 1, gaveUp: 0, err: "pancho/Distr+Aff+ClusterStealing P=8: cool: deadline 200000 exceeded at t=203259 with 2 live task(s), 1 blocked; queues=[0 0 0 0 0 0 0 0]\n  task \"main\" waits on scope (1 task(s) outstanding)"},
		{app: "pancho", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 498081, tasks: 169, faults: 6, redist: 1, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 169, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 169, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "pancho", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 169, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 1, plan: 0x1a770593ddfa6191, cycles: 661373, tasks: 769, faults: 2, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 2, plan: 0x4c2c8cee98d66450, cycles: 963310, tasks: 769, faults: 3, redist: 0, retries: 1, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 3, plan: 0x1ad6af4275f126b0, cycles: 1129074, tasks: 769, faults: 4, redist: 1, retries: 1, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 4, plan: 0x76a408a88e14d560, cycles: 707005, tasks: 769, faults: 5, redist: 0, retries: 71, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 5, plan: 0xc80174616d12d127, cycles: 704950, tasks: 769, faults: 2, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 6, plan: 0xa1d86cae456bd456, cycles: 584233, tasks: 769, faults: 3, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 7, plan: 0xdd2f6fad65ab3e9e, cycles: 1305886, tasks: 769, faults: 4, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos", seed: 8, plan: 0xa67db8e97de754ca, cycles: 1186626, tasks: 769, faults: 3, redist: 0, retries: 2, gaveUp: 0, err: ""},
		{app: "ocean", mode: "chaos-noretry", seed: 1, plan: 0x1a770593ddfa6191, cycles: 204093, tasks: 227, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "ocean/Distr+Aff P=8: cool: task \"accumulate\" failed transiently on P0 at cycle 202553: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "ocean", mode: "chaos-noretry", seed: 2, plan: 0x4c2c8cee98d66450, cycles: 221628, tasks: 225, faults: 1, redist: 0, retries: 0, gaveUp: 1, err: "ocean/Distr+Aff P=8: cool: task \"accumulate\" failed transiently on P3 at cycle 221268: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "ocean", mode: "chaos-noretry", seed: 3, plan: 0x1ad6af4275f126b0, cycles: 5307, tasks: 6, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "ocean/Distr+Aff P=8: cool: task \"laplace\" failed transiently on P5 at cycle 1440: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "ocean", mode: "chaos-noretry", seed: 4, plan: 0x76a408a88e14d560, cycles: 5491, tasks: 7, faults: 0, redist: 0, retries: 0, gaveUp: 1, err: "ocean/Distr+Aff P=8: cool: task \"laplace\" failed transiently on P3 at cycle 1490: retry budget exhausted after 1 aborted attempt(s)"},
		{app: "ocean", mode: "deadline", seed: 1, plan: 0x1a770593ddfa6191, cycles: 201413, tasks: 225, faults: 0, redist: 0, retries: 0, gaveUp: 0, err: "ocean/Distr+Aff P=8: cool: deadline 200000 exceeded at t=200038 with 3 live task(s), 1 blocked; queues=[0 0 0 0 0 0 0 0]\n  task \"main\" waits on scope (2 task(s) outstanding)"},
		{app: "ocean", mode: "deadline", seed: 2, plan: 0x4c2c8cee98d66450, cycles: 210360, tasks: 215, faults: 1, redist: 0, retries: 0, gaveUp: 0, err: "ocean/Distr+Aff P=8: cool: deadline 200000 exceeded at t=200249 with 19 live task(s), 1 blocked; queues=[0 0 0 4 0 0 0 6]\n  task \"main\" waits on scope (18 task(s) outstanding)"},
		{app: "ocean", mode: "fault", seed: 1, plan: 0x273f901768d64952, cycles: 1069285, tasks: 769, faults: 6, redist: 10, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "fault", seed: 2, plan: 0xf1e5efbecd0411c2, cycles: 1154631, tasks: 769, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "fault", seed: 3, plan: 0xc39bcfdeead39e4, cycles: 979359, tasks: 769, faults: 6, redist: 1, retries: 0, gaveUp: 0, err: ""},
		{app: "ocean", mode: "fault", seed: 4, plan: 0x3a02b91127772941, cycles: 1997277, tasks: 769, faults: 6, redist: 0, retries: 0, gaveUp: 0, err: ""},
	}
	i := 0
	for _, name := range []string{"gauss", "pancho", "ocean"} {
		app := lookup(t, name)
		for _, m := range []struct {
			mode  string
			seeds int64
		}{{"chaos", 8}, {"chaos-noretry", 4}, {"deadline", 2}, {"fault", 4}} {
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
