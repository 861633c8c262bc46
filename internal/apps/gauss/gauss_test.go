package gauss

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

func small() Params { return Params{N: 48} }

func TestSerialRuns(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Checksum == 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	// Steps are barrier-separated and each update owns its destination
	// column, so results must be bitwise identical to serial.
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
				t.Fatalf("%v/%d: checksum mismatch", v, procs)
			}
		}
	}
}

func TestTaskCount(t *testing.T) {
	p := small()
	res, err := run(4, TaskObject, p)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(p.N * (p.N - 1) / 2)
	if res.Tasks < want {
		t.Fatalf("tasks = %d, want >= %d", res.Tasks, want)
	}
}

func TestAffinitySpeedsUp(t *testing.T) {
	p := Params{N: 128}
	base, err := run(8, Base, p)
	if err != nil {
		t.Fatal(err)
	}
	full, err := run(8, TaskObject, p)
	if err != nil {
		t.Fatal(err)
	}
	if float64(full.Cycles) > 1.02*float64(base.Cycles) {
		t.Fatalf("Task+Object (%d) not competitive with Base (%d)", full.Cycles, base.Cycles)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := run(4, TaskObject, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4, TaskObject, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatal("non-deterministic")
	}
}
