package fault

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestValidateCatchesBadEvents(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want string
	}{
		{"proc out of range", (&Plan{}).Slow(8, 0, 4, 0), "out of range"},
		{"negative proc", (&Plan{}).Fail(-1, 0), "out of range"},
		{"factor too small", (&Plan{}).Slow(0, 0, 1, 0), "factor"},
		{"negative time", (&Plan{}).Stall(0, -5, 100), "negative time"},
		{"zero stall", (&Plan{}).Stall(0, 0, 0), "stall length"},
		{"cluster out of range", (&Plan{}).DegradeMemory(2, 0, 4), "out of range"},
		{"all procs fail", (&Plan{}).Fail(0, 0).Fail(1, 0), "must survive"},
		{"duplicate fail", (&Plan{}).Fail(0, 0).Fail(0, 500), "retired twice"},
		{"overlapping slowdowns", (&Plan{}).Slow(0, 100, 4, 1000).Slow(0, 600, 2, 1000), "overlaps"},
		{"permanent slowdown overlap", (&Plan{}).Slow(0, 100, 4, 0).Slow(0, 9_999_999, 2, 10), "overlaps"},
		{"unknown kind", &Plan{Events: []Event{{Kind: MemDegrade + 1}}}, "unknown kind"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(2, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	ok := (&Plan{}).Slow(1, 100, 4, 0).Stall(0, 50, 1000).Fail(1, 200).
		DegradeMemory(0, 0, 2).
		Slow(0, 0, 2, 50).Slow(0, 50, 2, 50) // adjacent windows do not overlap
	if err := ok.Validate(2, 2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestValidatePropertyNeverPanics throws random event soup — including
// field values the builders never produce — at Validate and checks it
// errors (or accepts) deterministically without panicking.
func TestValidatePropertyNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(8)
		p := &Plan{}
		for i := 0; i < n; i++ {
			p.Events = append(p.Events, Event{
				Kind:    Kind(rng.Intn(9)), // includes unknown kinds
				At:      int64(rng.Intn(2001) - 1000),
				Proc:    rng.Intn(13) - 4,
				Cluster: rng.Intn(7) - 2,
				Factor:  int64(rng.Intn(8) - 2),
				Cycles:  int64(rng.Intn(2001) - 1000),
			})
		}
		err1 := p.Validate(4, 1)
		err2 := p.Validate(4, 1)
		if (err1 == nil) != (err2 == nil) ||
			(err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("trial %d: Validate not deterministic: %v vs %v", trial, err1, err2)
		}
	}
}

// FuzzPlanValidate drives Validate from raw fuzz bytes decoded into
// events; any panic is a failure.
func FuzzPlanValidate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 1}) // two fails on P0
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &Plan{}
		for i := 0; i+4 <= len(data); i += 4 {
			p.Events = append(p.Events, Event{
				Kind:   Kind(data[i] % 10),
				At:     int64(int8(data[i+1])) * 100,
				Proc:   int(int8(data[i+2])) % 8,
				Factor: int64(data[i+3]%8) - 1,
				Cycles: int64(int8(data[i+3])) * 10,
			})
		}
		_ = p.Validate(4, 1) // must not panic
	})
}

func TestRandomPlansAreDeterministicAndValid(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := Random(seed, 8, 2, 12)
		b := Random(seed, 8, 2, 12)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two Random calls disagree", seed)
		}
		if err := a.Validate(8, 2); err != nil {
			t.Fatalf("seed %d: random plan invalid: %v", seed, err)
		}
	}
	if reflect.DeepEqual(Random(1, 8, 2, 12), Random(2, 8, 2, 12)) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestEventStrings(t *testing.T) {
	p := (&Plan{}).Slow(3, 10, 4, 500).Slow(3, 10, 4, 0).Stall(1, 5, 99).
		Fail(2, 7).DegradeMemory(1, 3, 8)
	for i, want := range []string{"slowdown", "slowdown", "stall", "fail", "memdegrade"} {
		if got := p.Events[i].String(); !strings.Contains(got, want) {
			t.Errorf("event %d: %q missing %q", i, got, want)
		}
	}
}
