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

// TestDiffVerify: an arm's Verify string is held to the reference
// token for token, ignored keys aside, and a missing field fails it.
func TestDiffVerify(t *testing.T) {
	var ref, res apps.Result
	ignore := map[string]bool{"cost": true}
	ref.Verify, res.Verify = "cost=5 ok=true", "cost=9 ok=true"
	if msgs := check(ref, res, ignore); len(msgs) != 0 {
		t.Fatalf("an ignored token flagged: %v", msgs)
	}
	res.Verify = "cost=5 ok=false"
	if msgs := check(ref, res, ignore); len(msgs) != 1 || !strings.Contains(msgs[0], "ok:") {
		t.Fatalf("a changed ok token gave %v", msgs)
	}
	res.Verify = "cost=5"
	if msgs := check(ref, res, ignore); len(msgs) != 1 || !strings.Contains(msgs[0], "shape") {
		t.Fatalf("a missing field gave %v", msgs)
	}
}
