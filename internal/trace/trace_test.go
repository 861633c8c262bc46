package trace

import (
	"strings"
	"testing"
)

func TestNilLogIsDisabled(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log reported enabled")
	}
	l.Add(1, 0, KindRun, "t", 0) // must not panic
	if l.Events() != nil || l.Dropped() != 0 {
		t.Fatal("nil log returned data")
	}
	if Dump(l.Events(), l.Dropped(), 0) == "" {
		t.Fatal("nil log String empty")
	}
	if Timeline(l.Events(), 2, 100, 10) != "" {
		t.Fatal("nil log produced a timeline")
	}
}

func TestAddAndDump(t *testing.T) {
	l := New(10)
	l.Add(100, 0, KindEnqueue, "a", 3)
	l.Add(150, 1, KindRun, "a", 0)
	l.Add(400, 1, KindDone, "a", 0)
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[1].Kind != KindRun || evs[1].Proc != 1 {
		t.Fatalf("bad event %+v", evs[1])
	}
	dump := Dump(l.Events(), l.Dropped(), 10)
	for _, want := range []string{"enqueue", "run", "done", "P01"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestCapacityDropsAreCounted(t *testing.T) {
	l := New(2)
	for i := 0; i < 5; i++ {
		l.Add(int64(i), 0, KindRun, "t", 0)
	}
	if len(l.Events()) != 2 || l.Dropped() != 3 {
		t.Fatalf("events=%d dropped=%d", len(l.Events()), l.Dropped())
	}
	if !strings.Contains(Dump(l.Events(), l.Dropped(), 2), "3 events dropped") {
		t.Fatal("dump does not mention drops")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindEnqueue: "enqueue", KindRun: "run", KindSteal: "steal",
		KindBlock: "block", KindReady: "ready", KindDone: "done",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(99).String() != "?" {
		t.Fatal("unknown kind not handled")
	}
}

func TestTimelineShapes(t *testing.T) {
	l := New(100)
	// P0 busy for the whole run; P1 busy for the second half only.
	l.Add(0, 0, KindRun, "a", 0)
	l.Add(1000, 0, KindDone, "a", 0)
	l.Add(500, 1, KindRun, "b", 0)
	l.Add(1000, 1, KindDone, "b", 0)
	tl := Timeline(l.Events(), 2, 1000, 10)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), tl)
	}
	if strings.Count(lines[0], "#") != 10 {
		t.Fatalf("P0 should be fully busy: %s", lines[0])
	}
	p1 := lines[1][strings.Index(lines[1], "|")+1:]
	if !strings.HasPrefix(p1, ".....") || strings.Count(p1, "#") != 5 {
		t.Fatalf("P1 should be idle-then-busy: %s", lines[1])
	}
}

func TestTimelineBlockEndsInterval(t *testing.T) {
	l := New(100)
	l.Add(0, 0, KindRun, "a", 0)
	l.Add(200, 0, KindBlock, "a", 0)
	tl := Timeline(l.Events(), 1, 1000, 10)
	if strings.Count(tl, "#") != 2 {
		t.Fatalf("expected 2 busy buckets: %s", tl)
	}
}

func TestTimelineOpenIntervalRunsToEnd(t *testing.T) {
	l := New(100)
	l.Add(500, 0, KindRun, "a", 0)
	// No Done event: the interval extends to the span end.
	tl := Timeline(l.Events(), 1, 1000, 10)
	if strings.Count(tl, "#") != 5 {
		t.Fatalf("open interval mishandled: %s", tl)
	}
}
