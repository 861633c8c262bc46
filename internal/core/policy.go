package core

import "fmt"

// This file holds every scheduling decision that is a pure function of
// the machine shape, the policy and which processors are alive —
// placement, failover, victim order, the steal gate.
// Both engines — the simulator's Scheduler in this package and the
// goroutine runtime in internal/native — call the fault-free ones
// (placement, victim order, the steal gate) and keep only what really
// differs between them: where the set-home table lives and how it is
// locked, the round-robin and least-loaded counters, and the queues.
// Failover and the reroute off a dead server are the simulator's alone:
// fault plans run only there.

// Topo is the part of the machine the scheduling decisions depend on.
type Topo struct {
	Procs          int   // servers, dead ones included
	ClusterSize    int   // processors sharing one local memory
	PageSize       int64 // for the two-modulo task-affinity slot hash
	QueueArraySize int   // task-affinity queues per server
}

// ProcSet is a set of processor ids. Both engines cap a machine at 64
// processors, so one word holds it; the decisions below take the set of
// dead (retired, or not yet added) processors in this form.
type ProcSet uint64

// Has reports whether p is in the set.
func (s ProcSet) Has(p int) bool { return s&(1<<uint(p)) != 0 }

// SameCluster reports whether processors p and q share a cluster (and
// therefore a local memory).
func (t Topo) SameCluster(p, q int) bool { return p/t.ClusterSize == q/t.ClusterSize }

// SlotOf maps a task-affinity object to its queue index within a server.
// Mixing the line and page numbers keeps both small same-page objects and
// page-aligned objects spread across the queue array.
func (t Topo) SlotOf(addr int64) int {
	h := addr>>6 + addr/t.PageSize
	return int(h % int64(t.QueueArraySize))
}

// Place resolves an affinity specification to (class, server, slot,
// setObj), implementing Table 1's semantics; home maps an object address
// to the server whose memory holds it. A task-affinity set (AffTask)
// comes back with server -1: which server hosts a set is the engine's
// set-home table's to say. Neither Base-mode round-robin (IgnoreHints)
// nor rerouting off a dead server is decided here.
func (t Topo) Place(a Affinity, spawner int, home func(addr int64) int) (Class, int, int, int64) {
	switch a.Kind {
	case AffNone:
		return ClassPlain, spawner, -1, 0
	case AffDefault, AffSimple:
		// Cache and memory locality on the one object: collocate with
		// its home and service back to back via its task-affinity queue.
		return ClassObjectBound, home(a.TaskObj), t.SlotOf(a.TaskObj), a.TaskObj
	case AffTask:
		// Back-to-back execution matters; the particular processor is a
		// load-balancing decision.
		return ClassTaskSet, -1, t.SlotOf(a.TaskObj), a.TaskObj
	case AffObject:
		return ClassObjectBound, home(a.ObjectObj), t.SlotOf(a.ObjectObj), a.ObjectObj
	case AffTaskObject:
		// Memory locality on the OBJECT operand, cache reuse grouping on
		// the TASK operand.
		return ClassObjectBound, home(a.ObjectObj), t.SlotOf(a.TaskObj), a.TaskObj
	case AffProcessor:
		p := a.Processor % t.Procs
		if p < 0 {
			p += t.Procs
		}
		return ClassProcessor, p, -1, 0
	}
	panic(fmt.Sprintf("core: unknown affinity kind %d", a.Kind))
}

// NearestAlive maps sv to itself when alive, otherwise deterministically
// to the nearest surviving server: same-cluster survivors first (they
// share the dead server's local memory), then increasing processor
// distance. Returns sv unchanged if no server survives.
func (t Topo) NearestAlive(sv int, dead ProcSet) int {
	if !dead.Has(sv) {
		return sv
	}
	for d := 1; d < t.Procs; d++ {
		if v := (sv + d) % t.Procs; !dead.Has(v) && t.SameCluster(sv, v) {
			return v
		}
	}
	for d := 1; d < t.Procs; d++ {
		if v := (sv + d) % t.Procs; !dead.Has(v) {
			return v
		}
	}
	return sv
}

// Failover picks the survivor for one task drained off a retired
// server. A task-affinity set keeps its live home (setHome, -1 when it
// has none) or else takes the next survivor of the spread, so the
// engine records that as the set's new home and the rest of the set
// follows; an object-bound task goes to the survivor nearest its
// server, staying close to its object's memory; anything else takes the
// next survivor of the spread. next yields the engine's rotation cursor,
// one step per call.
func (t Topo) Failover(class Class, server, setHome int, dead ProcSet, next func() int) int {
	switch {
	case class == ClassTaskSet && setHome >= 0 && !dead.Has(setHome):
		return setHome
	case class == ClassObjectBound:
		return t.NearestAlive(server, dead)
	}
	for i := 0; i < t.Procs; i++ {
		if v := next() % t.Procs; !dead.Has(v) {
			return v
		}
	}
	return 0
}

// Rings is one thief's victim probe order, in (thief+d)%Procs order with
// dead servers left out: the same-cluster victims, the remote ones, and
// both together.
type Rings struct {
	Cluster, Remote, Flat []int
}

// Build refills r for thief, reusing the slices' backing arrays.
func (r *Rings) Build(t Topo, thief int, dead ProcSet) {
	if r.Flat == nil {
		r.Cluster = make([]int, 0, min(t.ClusterSize, t.Procs)-1)
		r.Remote = make([]int, 0, t.Procs-1)
		r.Flat = make([]int, 0, t.Procs-1)
	}
	r.Cluster, r.Remote, r.Flat = r.Cluster[:0], r.Remote[:0], r.Flat[:0]
	for d := 1; d < t.Procs; d++ {
		v := (thief + d) % t.Procs
		if dead.Has(v) {
			continue
		}
		r.Flat = append(r.Flat, v)
		if t.SameCluster(thief, v) {
			r.Cluster = append(r.Cluster, v)
		} else {
			r.Remote = append(r.Remote, v)
		}
	}
}

// Order returns the rings a thief walks, first then second: same-cluster
// victims before remote ones under cluster-first stealing, same-cluster
// victims alone under cluster-only stealing, every victim in one flat
// ring otherwise.
func (r *Rings) Order(clusterFirst, clusterOnly bool) (first, second []int) {
	switch {
	case clusterOnly:
		return r.Cluster, nil
	case clusterFirst:
		return r.Cluster, r.Remote
	}
	return r.Flat, nil
}

// MayStealHead is the reluctant-steal gate on the head of a victim's
// queue, applied after the freely stealable work (whole sets, plain
// tasks) is gone; backlog is the victim's queued-task count. A pinned or
// object-bound task is taken only from a backlogged victim — with a
// single queued task its own server will service it promptly, and
// object-affinity tasks "should preferably not be stolen" (§4.2) — and
// an object-bound one only if the policy permits it at all. A lone
// task-affinity set member goes only when whole-set stealing is off (a
// deliberate split the caller counts).
func (p Policy) MayStealHead(c Class, backlog int) bool {
	switch c {
	case ClassProcessor:
		return backlog >= 2
	case ClassObjectBound:
		return p.StealObjectBound && backlog >= 2
	case ClassTaskSet:
		return !p.StealWholeSets
	}
	return true
}
