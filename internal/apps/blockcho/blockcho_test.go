package blockcho

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

func small() Params { return Params{N: 96, B: 16} }

func TestSerialFactors(t *testing.T) {
	res, err := runSerial(small())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxDiff > 1e-10 {
		t.Fatalf("serial blocked factor differs from unblocked by %g", res.MaxDiff)
	}
	if res.Blocks != 21 {
		t.Fatalf("blocks = %d, want 21", res.Blocks)
	}
}

func TestParallelCorrectAllVariants(t *testing.T) {
	for i := range Variants {
		v := Variant(i)
		for _, procs := range []int{1, 4, 8} {
			res, err := run(procs, v, small())
			if err != nil {
				t.Fatalf("%v/%d: %v", v, procs, err)
			}
			// potrf + trsm + notify + gemm tasks must all have run.
			if res.Tasks < 21 {
				t.Fatalf("%v/%d: only %d tasks", v, procs, res.Tasks)
			}
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	p := Params{N: 256, B: 32}
	ser, err := runSerial(p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(8, AffDistr, p)
	if err != nil {
		t.Fatal(err)
	}
	if sp := float64(ser.Cycles) / float64(par.Cycles); sp < 2.5 {
		t.Fatalf("speedup on 8 procs = %.2f, want >= 2.5", sp)
	}
}

func TestAffinityNotWorseThanBase(t *testing.T) {
	p := Params{N: 256, B: 32}
	base, err := run(16, Base, p)
	if err != nil {
		t.Fatal(err)
	}
	aff, err := run(16, AffDistr, p)
	if err != nil {
		t.Fatal(err)
	}
	if float64(aff.Cycles) > 1.05*float64(base.Cycles) {
		t.Fatalf("affinity (%d) worse than base (%d)", aff.Cycles, base.Cycles)
	}
}

func TestBadParams(t *testing.T) {
	if _, err := runSerial(Params{N: 100, B: 32}); err == nil {
		t.Fatal("indivisible N accepted")
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
	if a.Cycles != b.Cycles {
		t.Fatal("non-deterministic")
	}
}
