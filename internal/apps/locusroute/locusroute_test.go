package locusroute

import (
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

type evidence = Result // embedded under its own name beside harness.Result

// result is what the assertions read: the harness's uniform result plus
// the app's evidence.
type result struct {
	harness.Result
	evidence
	Tasks int64
}

// runCfg goes through the one runner, as the registry does.
func runCfg(cfg cool.Config, variant string, prm Params) (result, error) {
	r, err := Program.Run(variant, prm, cfg, nil, nil)
	if err != nil {
		return result{}, err
	}
	return result{r, r.Evidence.(Result), r.Report.Total.TasksRun}, nil
}

func run(procs int, v Variant, prm Params) (result, error) {
	return runCfg(cool.Config{Processors: procs}, v.String(), prm)
}

func runSerial(prm Params) (result, error) { return runCfg(cool.Config{}, harness.Serial, prm) }

func small() Params {
	return Params{W: 128, H: 32, Regions: 8, WiresPer: 12, CrossFrac: 0.1, Iterations: 2, Seed: 3}
}

func TestSerialConsistent(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatal("CostArray inconsistent with final routes")
	}
	if res.Wires != 8*12 {
		t.Fatalf("wires = %d", res.Wires)
	}
}

func TestAllVariantsConsistent(t *testing.T) {
	for i := range Variants {
		v := Variant(i)
		for _, procs := range []int{1, 4, 8} {
			res, err := run(procs, v, small())
			if err != nil {
				t.Fatalf("%v/%d: %v", v, procs, err)
			}
			if !res.Consistent {
				t.Fatalf("%v/%d: CostArray inconsistent (lost updates)", v, procs)
			}
			if res.TotalCost <= 0 {
				t.Fatalf("%v/%d: no congestion recorded", v, procs)
			}
		}
	}
}

func TestAffinityKeepsTasksAtHome(t *testing.T) {
	// The paper reports over 80% of wire tasks routed on their region's
	// processor under affinity scheduling.
	p := DefaultParams()
	p.WiresPer = 24
	res, err := run(8, Affinity, p)
	if err != nil {
		t.Fatal(err)
	}
	if hf := res.Report.Total.HomeFraction(); hf < 0.7 {
		t.Fatalf("home fraction %.2f, want >= 0.7", hf)
	}
}

func TestAffinityReducesMisses(t *testing.T) {
	// Figure 11's first effect: affinity scheduling cuts cache misses
	// substantially versus round-robin.
	p := DefaultParams()
	p.WiresPer = 24
	base, err := run(8, Base, p)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := run(8, Affinity, p)
	if err != nil {
		t.Fatal(err)
	}
	if aff.Report.Total.Misses() >= base.Report.Total.Misses() {
		t.Fatalf("affinity misses %d not below base %d",
			aff.Report.Total.Misses(), base.Report.Total.Misses())
	}
}

func TestObjectDistrRaisesLocalFraction(t *testing.T) {
	// Figure 11's second effect: distributing the CostArray leaves the
	// miss count roughly unchanged but services more misses locally.
	p := DefaultParams()
	p.WiresPer = 24
	aff, err := run(8, Affinity, p)
	if err != nil {
		t.Fatal(err)
	}
	distr, err := run(8, AffinityDistr, p)
	if err != nil {
		t.Fatal(err)
	}
	if distr.Report.Total.LocalFraction() <= aff.Report.Total.LocalFraction() {
		t.Fatalf("local fraction: distr %.2f <= aff %.2f",
			distr.Report.Total.LocalFraction(), aff.Report.Total.LocalFraction())
	}
}

func TestBadParams(t *testing.T) {
	if _, err := runSerial(Params{W: 100, Regions: 16, H: 32, WiresPer: 4, Iterations: 1, Seed: 1}); err == nil {
		t.Fatal("W not divisible by Regions accepted")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := run(4, Affinity, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4, Affinity, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.TotalCost != b.TotalCost {
		t.Fatal("non-deterministic")
	}
}
