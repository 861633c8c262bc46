package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for coolbench itself: with
// RUN_AS_COOLBENCH set it runs main on those arguments, so a test can
// observe the real process exit code and stderr.
func TestMain(m *testing.M) {
	if a, ok := os.LookupEnv("RUN_AS_COOLBENCH"); ok {
		os.Args = append(os.Args[:1], strings.Fields(a)...)
		main()
	}
	os.Exit(m.Run())
}

func coolbench(t *testing.T, args string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RUN_AS_COOLBENCH="+args)
	var b strings.Builder
	cmd.Stderr = &b
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return b.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatalf("coolbench %s: %v", args, err)
	}
	return b.String(), 0
}

// TestFailingExpFlushesProfiles: an experiment that fails after the
// profiles started must still exit 1 with both profiles written out.
func TestFailingExpFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mu := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mu.prof")
	// Ocean rejects a grid that its regions do not divide.
	stderr, code := coolbench(t, "-exp ocean -size 3 -procs 1 -cpuprofile "+cpu+" -mutexprofile "+mu)
	if code != 1 || !strings.Contains(stderr, "must be divisible") {
		t.Fatalf("exit %d, stderr %q; want 1 and ocean's size error", code, stderr)
	}
	for _, p := range []string{cpu, mu} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s not flushed: %v, %v", filepath.Base(p), fi, err)
		}
	}
}

// TestUnknownModeFlagIsRejected: a first argument that names no mode (a
// retired one, say) must stop in flag parsing with exit 2, not fall
// through to -exp all.
func TestUnknownModeFlagIsRejected(t *testing.T) {
	stderr, code := coolbench(t, "-retired-mode baseline.json")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -retired-mode") {
		t.Fatalf("exit %d, stderr %q; want 2 and the flag package's not-defined message", code, stderr)
	}
}

// TestModeDispatch: each surviving mode is reached through the table (an
// unknown app is each mode's cheapest exit), and a bad -exp or -procs,
// or a chaos flag combination the backends cannot run, stops with exit 2
// before any work.
func TestModeDispatch(t *testing.T) {
	for _, tc := range []struct {
		args, want string
		code       int
	}{
		{"-chaos -chaos-apps nosuch", "coolbench -chaos: unknown app", 2},
		{"-chaos -chaos-churn", "-chaos-churn requires -chaos-native", 2},
		{"-chaos -chaos-native -chaos-adapt", "-chaos-adapt runs on the simulator only", 2},
		{"-chaos -chaos-native -chaos-churn -chaos-adapt", "-chaos-adapt runs on the simulator only", 2},
		{"-chaos -chaos-churn -chaos-adapt", "-chaos-adapt runs on the simulator only", 2},
		{"-xcheck -xcheck-apps nosuch", "coolbench -xcheck:", 1},
		{"-trace -trace-out /dev/null -trace-app nosuch", "coolbench -trace: unknown app", 2},
		{"-exp nosuch", "unknown experiment", 2},
		{"-exp gauss -procs 1,x", "bad -procs entry", 2},
	} {
		stderr, code := coolbench(t, tc.args)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("coolbench %s: exit %d, stderr %q; want %d and %q", tc.args, code, stderr, tc.code, tc.want)
		}
	}
}
