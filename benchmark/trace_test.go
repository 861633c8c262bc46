package main

import "testing"

func TestSummarizeSelfTimeAndAccountedShare(t *testing.T) {
	spans := []span{
		{Job: "a", Name: rootSpan, Start: 0, End: 100},
		{Job: "a", Name: "submit", Parent: rootSpan, Start: 0, End: 10},
		{Job: "a", Name: "wait", Parent: rootSpan, Start: 5, End: 40}, // overlaps submit
		{Job: "a", Name: "run", Parent: rootSpan, Start: 40, End: 90},
		{Job: "a", Name: "lookup", Parent: "run", Start: 41, End: 44},
		{Job: "a", Name: "app", Parent: "run", Start: 44, End: 88},
		{Job: "b", Name: rootSpan, Start: 200, End: 300},
		{Job: "b", Name: "run", Parent: rootSpan, Start: 250, End: 320}, // clipped to its parent
		{Job: "b", Name: "after", Start: 300, End: 330},                 // a second root, outside the latency
	}
	s := summarize(spans)
	if got, want := s.Accounted, float64(90+50)/200; got != want {
		t.Errorf("accounted share = %g, want %g", got, want)
	}
	for name, want := range map[string]int64{
		rootSpan: 10 + 50, "submit": 10, "wait": 35, "run": 50 - 47 + 70, "lookup": 3, "app": 44, "after": 30,
	} {
		if got := s.SelfNS[name]; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
}

func TestNilTracerIsTheUntracedPass(t *testing.T) {
	var tr *tracer
	tr.add("a", "x", "", 0, 1) // must not panic
}
