package main

import "testing"

func TestDiffVerify(t *testing.T) {
	for _, c := range []struct {
		name, app, want, got string
		subset, same         bool
	}{
		{"equal", "gauss", "checksum=1.5", "checksum=1.5", false, true},
		{"value differs", "gauss", "checksum=1.5", "checksum=1.6", false, false},
		{"schedule token ignored", "locusroute", "consistent=true cost=10 wires=4", "consistent=true cost=99 wires=4", false, true},
		{"schedule token only for its app", "gauss", "cost=10", "cost=99", false, false},
		{"other token still checked", "locusroute", "consistent=true cost=10", "consistent=false cost=10", false, false},
		{"residuals under the ceiling", "pancho", "residual=1.2e-15", "residual=3.4e-14 maxdiff=2e-16 panels=9", true, true},
		{"residual over the ceiling", "pancho", "residual=1.2e-15", "residual=3.4e-3 maxdiff=2e-16 panels=9", true, false},
		{"residual not a number", "pancho", "residual=1.2e-15", "residual=NaN", true, false},
		{"serial reference is a subset", "blockcho", "maxdiff=1e-16", "maxdiff=2e-16 blocks=16", true, true},
		{"shape must match without subset", "blockcho", "maxdiff=1e-16", "maxdiff=2e-16 blocks=16", false, false},
		{"missing key", "ocean", "checksum=2", "sum=2", true, false},
	} {
		d := diffVerify(c.app, c.want, c.got, c.subset)
		if (d == "") != c.same {
			t.Errorf("%s: diffVerify(%q, %q) = %q, want same=%v", c.name, c.want, c.got, d, c.same)
		}
	}
}

// The first parallel output of a kind is checked against the serial
// reference and then pinned: the tokens a serial run does not report
// are held equal from then on.
func TestCheckerPinsFirstParallelOutput(t *testing.T) {
	j := job{App: "pancho", Size: "small"}
	c := &checker{serial: map[string]string{j.kind(): "residual=1e-15"}, parallel: make(map[string]string)}
	if err := c.check(j, "residual=2e-15 maxdiff=1e-16 panels=40"); err != nil {
		t.Fatalf("first output refused: %v", err)
	}
	if err := c.check(j, "residual=3e-15 maxdiff=2e-16 panels=40"); err != nil {
		t.Errorf("same panels refused: %v", err)
	}
	if err := c.check(j, "residual=3e-15 maxdiff=2e-16 panels=41"); err == nil {
		t.Error("a different panel count passed")
	}
	if err := c.check(job{App: "gauss", Size: "small"}, "checksum=1"); err == nil {
		t.Error("a kind with no reference passed")
	}
}
