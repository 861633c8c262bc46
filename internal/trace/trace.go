// Package trace records scheduler events (task enqueue, dispatch, steal,
// block, resume, completion) with simulated timestamps, and renders them
// as a text log or a per-processor utilization timeline. Tracing is the
// observability counterpart of the DASH performance monitor: where
// perfmon counts, trace explains *when* and *where*.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies one event.
type Kind uint8

const (
	// KindEnqueue: a task became runnable on a server's queue (Arg =
	// server).
	KindEnqueue Kind = iota
	// KindRun: a processor started or resumed a task (Proc = executor).
	KindRun
	// KindSteal: a task moved from victim (Arg) to thief (Proc).
	KindSteal
	// KindBlock: the running task parked on a monitor/condition/scope.
	KindBlock
	// KindReady: a blocked task was made runnable again (Arg = server
	// whose resume queue holds it).
	KindReady
	// KindDone: the task ran to completion on Proc.
	KindDone
	// KindFault: an injected fault struck Proc (Task names the fault
	// kind, Arg is kind-specific).
	KindFault
	// KindRedistribute: a task was moved off a failed server (Proc =
	// failed server, Arg = surviving server that received it).
	KindRedistribute
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEnqueue:
		return "enqueue"
	case KindRun:
		return "run"
	case KindSteal:
		return "steal"
	case KindBlock:
		return "block"
	case KindReady:
		return "ready"
	case KindDone:
		return "done"
	case KindFault:
		return "fault"
	case KindRedistribute:
		return "redist"
	}
	return "?"
}

// Event is one scheduler occurrence.
type Event struct {
	Time int64
	Proc int32 // processor the event happened on (-1 when not bound)
	Kind Kind
	Task string
	Arg  int64 // kind-specific (target server, victim processor)
}

// String renders one event.
func (e Event) String() string {
	return fmt.Sprintf("%10d P%02d %-8s %-12s arg=%d", e.Time, e.Proc, e.Kind, e.Task, e.Arg)
}

// Log is a bounded in-order event recorder. A nil *Log is a valid,
// disabled recorder.
type Log struct {
	max     int
	events  []Event
	dropped int64
}

// New creates a log holding at most max events (further events are
// counted but dropped).
func New(max int) *Log {
	if max <= 0 {
		max = 1 << 16
	}
	return &Log{max: max}
}

// Enabled reports whether events are being recorded.
func (l *Log) Enabled() bool { return l != nil }

// Add records an event.
func (l *Log) Add(time int64, proc int, kind Kind, task string, arg int64) {
	if l == nil {
		return
	}
	if len(l.events) >= l.max {
		l.dropped++
		return
	}
	l.events = append(l.events, Event{Time: time, Proc: int32(proc), Kind: kind, Task: task, Arg: arg})
}

// Reset empties the log, keeping its capacity.
func (l *Log) Reset() {
	if l == nil {
		return
	}
	clear(l.events)
	l.events, l.dropped = l.events[:0], 0
}

// Events returns the recorded events in order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Dropped returns how many events exceeded the capacity.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Dump renders events as text, one per line, and notes how many were
// dropped past capacity. capacity 0 means tracing was off.
func Dump(events []Event, dropped int64, capacity int) string {
	if capacity <= 0 {
		return "(tracing disabled)"
	}
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if dropped > 0 {
		fmt.Fprintf(&b, "... %d events dropped (capacity %d)\n", dropped, capacity)
	}
	return b.String()
}

// Timeline renders a per-processor utilization strip of the given width:
// '#' where the processor ran a task for the whole bucket, '+' for a
// partial bucket, '.' for idle. Busy intervals are reconstructed from
// Run → Block/Done event pairs. No events render nothing.
func Timeline(events []Event, procs int, span int64, width int) string {
	if len(events) == 0 || span <= 0 || width <= 0 {
		return ""
	}
	busy := make([][]int64, procs) // flattened [start, end, start, end...]
	open := make([]int64, procs)
	for i := range open {
		open[i] = -1
	}
	for _, e := range events {
		p := int(e.Proc)
		if p < 0 || p >= procs {
			continue
		}
		switch e.Kind {
		case KindRun:
			if open[p] < 0 {
				open[p] = e.Time
			}
		case KindBlock, KindDone:
			if open[p] >= 0 {
				busy[p] = append(busy[p], open[p], e.Time)
				open[p] = -1
			}
		}
	}
	for p := range open {
		if open[p] >= 0 {
			busy[p] = append(busy[p], open[p], span)
		}
	}
	bucket := float64(span) / float64(width)
	var b strings.Builder
	for p := 0; p < procs; p++ {
		fmt.Fprintf(&b, "P%02d |", p)
		iv := busy[p]
		for w := 0; w < width; w++ {
			lo := float64(w) * bucket
			hi := lo + bucket
			var covered float64
			for i := 0; i+1 < len(iv); i += 2 {
				s, e := float64(iv[i]), float64(iv[i+1])
				if e < lo || s > hi {
					continue
				}
				if s < lo {
					s = lo
				}
				if e > hi {
					e = hi
				}
				covered += e - s
			}
			switch {
			case covered >= 0.95*bucket:
				b.WriteByte('#')
			case covered > 0.05*bucket:
				b.WriteByte('+')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}
