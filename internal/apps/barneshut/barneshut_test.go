package barneshut

import (
	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
	"math"
	"testing"
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

func small() Params { return Params{Bodies: 256, Groups: 8, Steps: 2, Theta: 0.7, Seed: 5} }

func TestSerialRuns(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles")
	}
	if math.IsNaN(res.Checksum) || res.Checksum == 0 {
		t.Fatalf("bad checksum %v", res.Checksum)
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	// Forces are computed from a tree built identically each step and
	// written to disjoint body blocks, so every variant and processor
	// count must produce bitwise-identical positions.
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

func TestBodiesMove(t *testing.T) {
	one, err := runSerial(Params{Bodies: 256, Groups: 8, Steps: 1, Theta: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, err := runSerial(Params{Bodies: 256, Groups: 8, Steps: 2, Theta: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if one.Checksum == two.Checksum {
		t.Fatal("positions did not change between steps; forces are not applied")
	}
}

func TestParallelSpeedup(t *testing.T) {
	p := Params{Bodies: 1024, Groups: 32, Steps: 2, Theta: 0.7, Seed: 5}
	ser, err := runSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8, AffDistr, p)
	if err != nil {
		t.Fatal(err)
	}
	if sp := float64(ser.Cycles) / float64(par.Cycles); sp < 2 {
		t.Fatalf("speedup on 8 procs = %.2f, want >= 2 (tree build is serial)", sp)
	}
}

func TestBadParams(t *testing.T) {
	if _, err := runSerial(Params{Bodies: 100, Groups: 32, Steps: 1, Theta: 0.7, Seed: 1}); err == nil {
		t.Fatal("indivisible body count accepted")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := run(4, AffDistr, small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(4, AffDistr, small())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Checksum != b.Checksum {
		t.Fatal("non-deterministic")
	}
}
