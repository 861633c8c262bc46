// Package fault defines deterministic fault-injection plans. A Plan is
// an explicit list of fault events — processor slowdowns, stalls,
// permanent failures and memory-module degradation — that the runtime
// applies at fixed times. On the simulator every event is pinned to
// simulated time (not wall clock) and plans carry no hidden randomness,
// so a run with the same Config and the same plan is exactly
// reproducible: fault experiments replay cycle for cycle. Plans run on
// the simulator only; the native backend rejects them.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind classifies one fault event.
type Kind uint8

const (
	// Slowdown multiplies every cycle charged on a processor by Factor
	// for Cycles simulated cycles (0 = for the rest of the run) — a
	// straggler.
	Slowdown Kind = iota
	// Stall freezes a processor for Cycles cycles at time At (a long
	// non-fatal hiccup: thermal throttle, interrupt storm).
	Stall
	// Fail retires a processor permanently at time At. Its queued work
	// is redistributed to the surviving servers.
	Fail
	// MemDegrade multiplies a cluster memory module's service latency
	// and occupancy by Factor from time At onward.
	MemDegrade
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Slowdown:
		return "slowdown"
	case Stall:
		return "stall"
	case Fail:
		return "fail"
	case MemDegrade:
		return "memdegrade"
	}
	return "?"
}

// Event is one scheduled fault.
type Event struct {
	Kind    Kind
	At      int64 // simulated cycle the fault strikes
	Proc    int   // target processor (Slowdown, Stall, Fail)
	Cluster int   // target memory module (MemDegrade)
	Factor  int64 // cost multiplier >= 2 (Slowdown, MemDegrade)
	Cycles  int64 // stall length, or slowdown duration (0 = permanent)
}

// String renders one event.
func (ev Event) String() string {
	switch ev.Kind {
	case Slowdown:
		if ev.Cycles > 0 {
			return fmt.Sprintf("slowdown P%d x%d @%d for %d", ev.Proc, ev.Factor, ev.At, ev.Cycles)
		}
		return fmt.Sprintf("slowdown P%d x%d @%d", ev.Proc, ev.Factor, ev.At)
	case Stall:
		return fmt.Sprintf("stall P%d for %d @%d", ev.Proc, ev.Cycles, ev.At)
	case Fail:
		return fmt.Sprintf("fail P%d @%d", ev.Proc, ev.At)
	case MemDegrade:
		return fmt.Sprintf("memdegrade C%d x%d @%d", ev.Cluster, ev.Factor, ev.At)
	}
	return "?"
}

// Plan is an ordered list of fault events. The zero value is an empty
// plan; the builder methods append and return the plan for chaining.
type Plan struct {
	Events []Event
}

// Slow schedules a slowdown of proc by factor at time at, lasting
// duration cycles (0 = rest of run).
func (p *Plan) Slow(proc int, at, factor, duration int64) *Plan {
	p.Events = append(p.Events, Event{Kind: Slowdown, Proc: proc, At: at, Factor: factor, Cycles: duration})
	return p
}

// Stall schedules a stall of proc for cycles at time at.
func (p *Plan) Stall(proc int, at, cycles int64) *Plan {
	p.Events = append(p.Events, Event{Kind: Stall, Proc: proc, At: at, Cycles: cycles})
	return p
}

// Fail schedules a permanent failure of proc at time at.
func (p *Plan) Fail(proc int, at int64) *Plan {
	p.Events = append(p.Events, Event{Kind: Fail, Proc: proc, At: at})
	return p
}

// DegradeMemory schedules degradation of cluster's memory module by
// factor from time at onward.
func (p *Plan) DegradeMemory(cluster int, at, factor int64) *Plan {
	p.Events = append(p.Events, Event{Kind: MemDegrade, Cluster: cluster, At: at, Factor: factor})
	return p
}

// window is a half-open interval of simulated time, [from, to).
// to == MaxInt64 models an open-ended (permanent) window.
type window struct{ from, to int64 }

func (w window) overlaps(o window) bool { return w.from < o.to && o.from < w.to }

// overlapsAny reports whether w overlaps any window of ws.
func overlapsAny(ws []window, w window) bool {
	for _, o := range ws {
		if w.overlaps(o) {
			return true
		}
	}
	return false
}

func windowOf(at, cycles int64) window {
	if cycles <= 0 {
		return window{at, math.MaxInt64}
	}
	return window{at, at + cycles}
}

// Validate checks the plan against a machine with procs processors and
// clusters memory modules. Beyond per-event field checks it enforces
// whole-plan consistency: at least one processor must survive all Fail
// events (so the program can always make progress), no processor may
// be retired twice, and the Slowdown windows on one processor must not
// overlap — an overlapping window would silently overwrite the earlier
// event's effect, making the plan ambiguous.
func (p *Plan) Validate(procs, clusters int) error {
	failed := make(map[int]bool)
	slowWins := make(map[int][]window)
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s): negative time %d", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case Slowdown:
			if ev.Proc < 0 || ev.Proc >= procs {
				return fmt.Errorf("fault: event %d: processor %d out of range [0,%d)", i, ev.Proc, procs)
			}
			if ev.Factor < 2 {
				return fmt.Errorf("fault: event %d: slowdown factor %d must be >= 2", i, ev.Factor)
			}
			if ev.Cycles < 0 {
				return fmt.Errorf("fault: event %d: negative slowdown duration %d", i, ev.Cycles)
			}
			w := windowOf(ev.At, ev.Cycles)
			if overlapsAny(slowWins[ev.Proc], w) {
				return fmt.Errorf("fault: event %d: slowdown window on P%d overlaps an earlier one", i, ev.Proc)
			}
			slowWins[ev.Proc] = append(slowWins[ev.Proc], w)
		case Stall:
			if ev.Proc < 0 || ev.Proc >= procs {
				return fmt.Errorf("fault: event %d: processor %d out of range [0,%d)", i, ev.Proc, procs)
			}
			if ev.Cycles <= 0 {
				return fmt.Errorf("fault: event %d: stall length %d must be positive", i, ev.Cycles)
			}
		case Fail:
			if ev.Proc < 0 || ev.Proc >= procs {
				return fmt.Errorf("fault: event %d: processor %d out of range [0,%d)", i, ev.Proc, procs)
			}
			if failed[ev.Proc] {
				return fmt.Errorf("fault: event %d: processor %d retired twice", i, ev.Proc)
			}
			failed[ev.Proc] = true
		case MemDegrade:
			if ev.Cluster < 0 || ev.Cluster >= clusters {
				return fmt.Errorf("fault: event %d: cluster %d out of range [0,%d)", i, ev.Cluster, clusters)
			}
			if ev.Factor < 2 {
				return fmt.Errorf("fault: event %d: degrade factor %d must be >= 2", i, ev.Factor)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %d", i, ev.Kind)
		}
	}
	if len(failed) >= procs {
		return fmt.Errorf("fault: plan retires all %d processors; at least one must survive", procs)
	}
	return nil
}

// Random builds a reproducible plan of n fault events (slowdowns, stalls, memory degradation, and at most procs-1 permanent
// failures) for stress testing. The same seed always yields the same
// plan, and every generated plan passes Validate: a slowdown that would
// overlap an earlier one on its processor becomes a stall, and so does a
// failure past the procs-1 budget or of a processor already retired.
func Random(seed int64, procs, clusters, n int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	failed := make(map[int]bool)
	slow := make(map[int][]window)
	for i := 0; i < n; i++ {
		at := int64(rng.Intn(2_000_000))
		proc := rng.Intn(procs)
		switch rng.Intn(4) {
		case 0:
			dur := int64(1 + rng.Intn(500_000))
			factor := int64(2 + rng.Intn(7))
			if w := windowOf(at, dur); !overlapsAny(slow[proc], w) {
				slow[proc] = append(slow[proc], w)
				p.Slow(proc, at, factor, dur)
			} else {
				p.Stall(proc, at, dur/2+1)
			}
		case 1:
			p.Stall(proc, at, int64(1+rng.Intn(200_000)))
		case 2:
			if clusters > 0 {
				p.DegradeMemory(rng.Intn(clusters), at, int64(2+rng.Intn(4)))
			}
		case 3:
			if len(failed) < procs-1 && !failed[proc] {
				failed[proc] = true
				p.Fail(proc, at)
			} else {
				p.Stall(proc, at, int64(1+rng.Intn(100_000)))
			}
		}
	}
	return p
}
