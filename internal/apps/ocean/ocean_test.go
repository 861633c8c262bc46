package ocean

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

func small() Params { return Params{N: 64, Regions: 8, Grids: 3, Steps: 2} }

func TestSerialRuns(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Checksum == 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	// Stencils read one grid and write another with a barrier between
	// operations, so the parallel result must match the serial result
	// exactly, for every variant and processor count.
	ser, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	for i := range Variants {
		v := Variant(i)
		for _, procs := range []int{1, 4, 8} {
			res, err := run(procs, v, small())
			if err != nil {
				t.Fatalf("%v/%d: %v", v, procs, err)
			}
			if res.Checksum != ser.Checksum {
				t.Fatalf("%v/%d: checksum %v != serial %v", v, procs, res.Checksum, ser.Checksum)
			}
		}
	}
}

func TestRegionTasksSpawned(t *testing.T) {
	p := small()
	res, err := run(4, DistrAff, p)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := int64(p.Steps * p.Grids * p.Regions) // (G-1 stencils + 1 axpy) × steps
	if res.Tasks < wantTasks {
		t.Fatalf("tasks = %d, want >= %d", res.Tasks, wantTasks)
	}
}

func TestDistrAffImprovesLocality(t *testing.T) {
	p := Params{N: 128, Regions: 16, Grids: 4, Steps: 2}
	base, err := run(8, Base, p)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := run(8, DistrAff, p)
	if err != nil {
		t.Fatal(err)
	}
	if aff.Cycles >= base.Cycles {
		t.Fatalf("affinity (%d) not faster than base (%d)", aff.Cycles, base.Cycles)
	}
	// Distribution converts remote misses to local ones.
	if aff.Report.Total.LocalFraction() <= base.Report.Total.LocalFraction() {
		t.Fatalf("local fraction: aff %.2f <= base %.2f",
			aff.Report.Total.LocalFraction(), base.Report.Total.LocalFraction())
	}
}

func TestParallelSpeedup(t *testing.T) {
	p := Params{N: 128, Regions: 16, Grids: 4, Steps: 2}
	ser, err := runSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8, DistrAff, p)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(ser.Cycles) / float64(par.Cycles)
	if speedup < 2.5 {
		t.Fatalf("speedup on 8 procs = %.2f, want >= 2.5", speedup)
	}
}

func TestBadParamsRejected(t *testing.T) {
	if _, err := runSerial(Params{N: 65, Regions: 8, Grids: 3, Steps: 1}); err == nil {
		t.Fatal("indivisible N accepted")
	}
	if _, err := runSerial(Params{N: 64, Regions: 8, Grids: 1, Steps: 1}); err == nil {
		t.Fatal("single grid accepted")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := run(4, DistrAff, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4, DistrAff, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Report.Total != b.Report.Total {
		t.Fatal("non-deterministic")
	}
}
