package fault

// Injector is one run's count of spawns per task name, kept only for the
// names a validated plan plants a panic in: the simulator asks it, at
// each spawn, whether the plan makes that spawn panic. It is a plain map
// with no lock — the simulator runs task bodies one at a time — and a
// nil Injector plants nothing. Build a fresh one for each run.
type Injector map[string]*planted

// planted is one task name's planted panics and its spawns so far.
type planted struct {
	spawned int          // spawns of the name so far
	panics  map[int]bool // 0-based spawn indices that panic
}

// NewInjector builds the injection state of a validated plan, or returns
// nil when the plan plants no panic.
func NewInjector(p *Plan) Injector {
	var in Injector
	for _, ev := range p.Events {
		if ev.Kind != TaskPanic {
			continue
		}
		if in == nil {
			in = Injector{}
		}
		n := in[ev.Task]
		if n == nil {
			n = &planted{panics: map[int]bool{}}
			in[ev.Task] = n
		}
		n.panics[ev.Nth] = true
	}
	return in
}

// Spawn numbers one spawn of name (0-based, in creation order) and
// reports whether the plan plants a panic in it. Names with no planted
// panic are not counted.
func (in Injector) Spawn(name string) (panics bool) {
	n := in[name]
	if n == nil {
		return false
	}
	idx := n.spawned
	n.spawned++
	return n.panics[idx]
}
