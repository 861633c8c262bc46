package fault

import "sync"

// Injector is a validated plan's run-time injection state, the
// simulator's answer for which spawns a plan numbers, which of them
// panic, and which launch attempts abort: the per-name spawn index, the
// planted panics, the planted aborts (stackable), and the per-processor
// flaky windows. Build a fresh one for each run.
//
// tracked and flaky are read-only after NewInjector, so the spawn and
// launch paths read them without the lock; the mutex guards the spawn
// counters and the remaining aborts, and is taken only for tracked
// names.
type Injector struct {
	tracked map[string]bool // names with a planted panic or abort
	flaky   [][]window      // per-processor launch-abort windows

	mu     sync.Mutex
	seq    map[string]int          // spawns so far, per tracked name
	panics map[string]map[int]bool // name -> spawn indices that panic
	aborts map[string]map[int]int  // name -> spawn index -> launch aborts left
}

// NewInjector builds the injection state of a validated plan for a
// machine of procs processors, or returns nil when the plan plants
// nothing at spawn or launch (no TaskPanic, TaskFail or Flaky event).
func NewInjector(p *Plan, procs int) *Injector {
	var in *Injector
	for _, ev := range p.Events {
		if ev.Kind != TaskPanic && ev.Kind != TaskFail && ev.Kind != Flaky {
			continue
		}
		if in == nil {
			in = &Injector{
				tracked: map[string]bool{},
				flaky:   make([][]window, procs),
				seq:     map[string]int{},
				panics:  map[string]map[int]bool{},
				aborts:  map[string]map[int]int{},
			}
		}
		switch ev.Kind {
		case TaskPanic:
			if in.panics[ev.Task] == nil {
				in.panics[ev.Task] = map[int]bool{}
			}
			in.panics[ev.Task][ev.Nth] = true
			in.tracked[ev.Task] = true
		case TaskFail:
			if in.aborts[ev.Task] == nil {
				in.aborts[ev.Task] = map[int]int{}
			}
			in.aborts[ev.Task][ev.Nth]++
			in.tracked[ev.Task] = true
		case Flaky:
			in.flaky[ev.Proc] = append(in.flaky[ev.Proc], windowOf(ev.At, ev.Cycles))
		}
	}
	return in
}

// Tracks reports whether spawns with this name must be numbered through
// Spawn. Untracked names skip the lock and the counters entirely.
func (in *Injector) Tracks(name string) bool { return in.tracked[name] }

// Spawn numbers one spawn of a tracked name (0-based, in creation
// order) and reports whether the plan plants a panic in it.
func (in *Injector) Spawn(name string) (idx int, panics bool) {
	in.mu.Lock()
	idx = in.seq[name]
	in.seq[name] = idx + 1
	panics = in.panics[name][idx]
	in.mu.Unlock()
	return idx, panics
}

// Strikes reports whether a fresh launch on proc at time now, of spawn
// idx of name, aborts transiently: a flaky window on proc covers now,
// or a planted abort for that spawn remains, which the strike consumes.
// idx matters only for a tracked name. A nil Injector strikes nothing.
func (in *Injector) Strikes(proc int, now int64, name string, idx int) bool {
	if in == nil {
		return false
	}
	for _, w := range in.flaky[proc] {
		if now >= w.from && now < w.to {
			return true
		}
	}
	if !in.tracked[name] {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	left := in.aborts[name][idx]
	if left <= 0 {
		return false
	}
	in.aborts[name][idx] = left - 1
	return true
}
