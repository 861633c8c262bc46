package xcheck

import (
	"strings"
	"testing"

	"github.com/coolrts/cool/internal/apps"
)

// TestSmallSweep cross-checks every app at smoke sizes on one and two
// processors. The full matrix (P up to 8, default sizes) runs under
// `coolbench -xcheck` and in CI.
func TestSmallSweep(t *testing.T) {
	var out strings.Builder
	if err := Run(Options{Procs: []int{1, 2}, Small: true, Out: &out}); err != nil {
		t.Fatalf("differential sweep failed:\n%s\n%v", out.String(), err)
	}
	if !strings.Contains(out.String(), "ok   gauss") {
		t.Fatalf("sweep did not cover gauss:\n%s", out.String())
	}
}

func TestUnknownApp(t *testing.T) {
	if err := Run(Options{Apps: []string{"nope"}, Procs: []int{1}, Small: true}); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

// TestCheckFlagsShedOnEveryArm: an arm that shed a task past a deadline
// no app sets fails whichever arm it is.
func TestCheckFlagsShedOnEveryArm(t *testing.T) {
	var ref, res apps.Result
	ref.Verify, res.Verify = "checksum=1", "checksum=1"
	if msgs := check(ref, res, nil); len(msgs) != 0 {
		t.Fatalf("identical results flagged: %v", msgs)
	}
	res.Report.Total.DeadlineMisses = 2
	if msgs := check(ref, res, nil); len(msgs) != 1 || !strings.Contains(msgs[0], "2 deadline misses") {
		t.Fatalf("a result with two deadline misses gave %v", msgs)
	}
}

func TestDiffVerify(t *testing.T) {
	cases := []struct {
		want, got string
		ignore    map[string]bool
		same      bool
	}{
		{"checksum=1.5 tasks=10", "checksum=1.5 tasks=10", nil, true},
		{"checksum=1.5 tasks=10", "checksum=1.6 tasks=10", nil, false},
		{"cost=5 ok=true", "cost=9 ok=true", map[string]bool{"cost": true}, true},
		{"cost=5 ok=true", "cost=5 ok=false", map[string]bool{"cost": true}, false},
		{"a=1 b=2", "a=1", nil, false},
	}
	for i, tc := range cases {
		if got := apps.DiffVerify(tc.want, tc.got, tc.ignore); (got == "") != tc.same {
			t.Errorf("case %d: diff = %q, want same=%v", i, got, tc.same)
		}
	}
}
