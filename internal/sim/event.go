package sim

// Event kinds. The two hot-path kinds — dispatch wakes and quantum-slice
// requeues — carry their operands in typed fields so scheduling an event
// never allocates a closure; evFunc remains for external callers
// (Engine.At, fault plans).
const (
	evFunc = iota
	evDispatch
	evSlice
)

// event is a scheduled engine action. Ties on time break by insertion
// order (seq) so runs are deterministic.
type event struct {
	time  int64
	seq   uint64
	kind  int
	p     *Proc  // evDispatch, evSlice
	t     *Task  // evSlice
	epoch uint64 // evDispatch: stale-wake guard
	fn    func() // evFunc
}

// before orders events by (time, seq). seq is unique, so the order is
// total and any correct heap pops the same sequence.
func (ev *event) before(o *event) bool {
	if ev.time != o.time {
		return ev.time < o.time
	}
	return ev.seq < o.seq
}

// eventHeap is a binary min-heap of event values under before.
type eventHeap []event

// push adds ev.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	es := *h
	i := len(es) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(&es[up]) {
			break
		}
		es[i] = es[up]
		i = up
	}
	es[i] = ev
}

// pop removes and returns the earliest event. The heap must be non-empty.
func (h *eventHeap) pop() event {
	es := *h
	top := es[0]
	n := len(es) - 1
	last := es[n]
	es[n] = event{} // drop the vacated slot's references
	es = es[:n]
	*h = es
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && es[r].before(&es[c]) {
			c = r
		}
		if !es[c].before(&last) {
			break
		}
		es[i] = es[c]
		i = c
	}
	es[i] = last
	return top
}
