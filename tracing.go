package cool

import (
	"io"

	"github.com/coolrts/cool/internal/trace"
)

// TraceEvent is one recorded scheduler occurrence: a task being enqueued,
// dispatched, stolen, blocked, made ready, or completed.
type TraceEvent struct {
	Time int64  // simulated cycle (native backend: nanoseconds since Run)
	Proc int    // processor (-1 when the event is not bound to one)
	Kind string // enqueue | run | steal | block | ready | done
	Task string
	Arg  int64 // kind-specific: target server, or victim processor for steals
}

// rawTraceEvents returns the backend's recorded events in time order
// and how many were dropped past Config.TraceCapacity.
func (rt *Runtime) rawTraceEvents() ([]trace.Event, int64) {
	if rt.backend == BackendNative {
		return rt.nat.TraceEvents()
	}
	return rt.sched.Trace.Events(), rt.sched.Trace.Dropped()
}

// TraceEvents returns the recorded scheduler events (empty unless
// Config.TraceCapacity was set). Call after Run.
func (rt *Runtime) TraceEvents() []TraceEvent {
	evs, _ := rt.rawTraceEvents()
	out := make([]TraceEvent, len(evs))
	for i, e := range evs {
		out[i] = TraceEvent{
			Time: e.Time,
			Proc: int(e.Proc),
			Kind: e.Kind.String(),
			Task: e.Task,
			Arg:  e.Arg,
		}
	}
	return out
}

// TraceDump renders the recorded events as text, one per line, noting
// how many were dropped past Config.TraceCapacity.
func (rt *Runtime) TraceDump() string {
	evs, dropped := rt.rawTraceEvents()
	return trace.Dump(evs, dropped, rt.pub.TraceCapacity)
}

// TraceTimeline renders a per-processor utilization strip of the given
// width over the whole run: '#' busy, '+' partially busy, '.' idle.
func (rt *Runtime) TraceTimeline(width int) string {
	evs, _ := rt.rawTraceEvents()
	return trace.Timeline(evs, rt.cfg.Processors, rt.ElapsedCycles(), width)
}

// WriteChromeTrace writes the recorded events as Chrome trace_event JSON
// (load the file in Perfetto or chrome://tracing). Works on both
// backends; on the simulator one "microsecond" of the viewer timeline is
// one simulated cycle. Call after Run.
func (rt *Runtime) WriteChromeTrace(w io.Writer) error {
	evs, _ := rt.rawTraceEvents()
	return trace.WriteChrome(w, evs, rt.cfg.Processors, string(rt.backend.String()))
}

// enable wires a trace log of the given capacity into the scheduler.
func (rt *Runtime) enableTracing(capacity int) {
	rt.sched.Trace = trace.New(capacity)
}
