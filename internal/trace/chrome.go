package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event JSON array (the
// "JSON Array Format" every trace_event consumer accepts). Timestamps
// are microseconds; the exporter maps one simulated cycle (or one native
// nanosecond) to one microsecond so the viewer's zoom levels stay
// useful.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`   // instant-event scope
	Cat   string         `json:"cat,omitempty"` // event category
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes events as Chrome trace_event JSON: per-processor
// "X" (complete) slices reconstructed from Run → Block/Done pairs — the
// same reconstruction Timeline uses — plus thread-scoped "i" (instant)
// markers for enqueues, steals, readies, faults and redistributions,
// and "M" metadata naming each processor row. backend labels the
// process ("sim" or "native"). The output loads in Perfetto and
// chrome://tracing.
func WriteChrome(w io.Writer, events []Event, procs int, backend string) error {
	var out []chromeEvent
	out = append(out, chromeEvent{
		Name: "process_name", Phase: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "cool (" + backend + ")"},
	})
	for p := 0; p < procs; p++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: p,
			Args: map[string]any{"name": fmt.Sprintf("P%02d", p)},
		})
	}

	// Reconstruct busy slices: a Run opens an interval on its processor,
	// the next Block/Done there closes it.
	openAt := make([]int64, procs)
	openTask := make([]string, procs)
	for i := range openAt {
		openAt[i] = -1
	}
	var maxT int64
	for _, e := range events {
		if e.Time > maxT {
			maxT = e.Time
		}
		p := int(e.Proc)
		inRange := p >= 0 && p < procs
		switch e.Kind {
		case KindRun:
			if inRange && openAt[p] < 0 {
				openAt[p] = e.Time
				openTask[p] = e.Task
			}
		case KindBlock, KindDone:
			if inRange && openAt[p] >= 0 {
				out = append(out, chromeEvent{
					Name: openTask[p], Phase: "X", Cat: "task",
					TS: openAt[p], Dur: maxI64(e.Time-openAt[p], 1),
					PID: 0, TID: p,
				})
				openAt[p] = -1
			}
		case KindEnqueue, KindReady:
			// Not bound to a processor (Proc=-1); mark on the target
			// server's row.
			tid := int(e.Arg)
			if tid < 0 || tid >= procs {
				tid = 0
			}
			out = append(out, chromeEvent{
				Name: e.Kind.String() + " " + e.Task, Phase: "i", Scope: "t",
				Cat: "queue", TS: e.Time, PID: 0, TID: tid,
				Args: map[string]any{"task": e.Task, "server": e.Arg},
			})
		case KindSteal, KindFault, KindRedistribute:
			if !inRange {
				continue
			}
			out = append(out, chromeEvent{
				Name: e.Kind.String() + " " + e.Task, Phase: "i", Scope: "t",
				Cat: "sched", TS: e.Time, PID: 0, TID: p,
				Args: map[string]any{"task": e.Task, "arg": e.Arg},
			})
		}
	}
	// Close intervals still open at the end of the trace (capacity hit or
	// run stopped mid-task).
	for p := range openAt {
		if openAt[p] >= 0 {
			out = append(out, chromeEvent{
				Name: openTask[p], Phase: "X", Cat: "task",
				TS: openAt[p], Dur: maxI64(maxT-openAt[p], 1),
				PID: 0, TID: p,
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
