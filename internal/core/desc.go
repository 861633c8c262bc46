// Package core implements the COOL runtime scheduler described in the
// paper: task descriptors carrying affinity hints, the per-server queue
// structure (an object-affinity queue plus an array of task-affinity
// queues whose non-empty members are linked in a doubly-linked list),
// back-to-back servicing of task-affinity sets, and work stealing with
// set stealing, object-affinity reluctance, and optional cluster-only
// stealing. It also provides the synchronization objects of the language:
// monitors (mutex functions), condition variables, and waitfor scopes.
package core

import "github.com/coolrts/cool/internal/sim"

// Class describes how a task was placed, which controls both queue choice
// and stealing behaviour.
type Class int8

const (
	// ClassPlain tasks have no locality preference and live on the
	// plain queue; they are freely stealable.
	ClassPlain Class = iota
	// ClassProcessor tasks were placed by an explicit PROCESSOR
	// affinity hint. They live on the plain queue of that server and
	// may still be stolen for load balance.
	ClassProcessor
	// ClassTaskSet tasks carry TASK affinity only: the set should run
	// back to back on one processor, but which processor is a load
	// balancing decision, and an idle processor may steal the whole set.
	ClassTaskSet
	// ClassObjectBound tasks carry OBJECT (or default/simple) affinity:
	// they are collocated with their object's home and are stolen only
	// as a last resort, since moving them converts local references
	// into remote ones.
	ClassObjectBound
)

func (c Class) String() string {
	switch c {
	case ClassPlain:
		return "plain"
	case ClassProcessor:
		return "processor"
	case ClassTaskSet:
		return "taskset"
	case ClassObjectBound:
		return "objectbound"
	}
	return "unknown"
}

// TaskDesc is the scheduler's descriptor for one task.
type TaskDesc struct {
	T *sim.Task

	// Link queues the descriptor on its server and carries its class,
	// slot and set object.
	Link[TaskDesc]

	Server int // preferred server (-1 when indifferent)

	// Scope is the waitfor scope this task was created in (nil outside
	// any waitfor). Completion decrements the scope.
	Scope *Scope

	// LastProc is the processor the task last ran on; continuations are
	// re-enqueued there.
	LastProc int

	// BlockedOn is the synchronization object (*Monitor, *Cond, or
	// *Scope) the task is currently parked on, nil while runnable. The
	// public runtime reads it to build deadlock wait-for graphs.
	BlockedOn any

	dispatched bool // first dispatch already counted in perfmon
}

// AffinityKind enumerates the hint combinations of Table 1.
type AffinityKind int8

const (
	// AffNone: no hint; the task is enqueued locally and stealable.
	AffNone AffinityKind = iota
	// AffDefault: default affinity for the base object the parallel
	// function is invoked on (scheduled like simple affinity).
	AffDefault
	// AffSimple: affinity(obj) — cache and memory locality on obj.
	AffSimple
	// AffTask: affinity(obj, TASK) — back-to-back cache reuse on obj;
	// placement chosen for load balance.
	AffTask
	// AffObject: affinity(obj, OBJECT) — collocate with obj's home.
	AffObject
	// AffTaskObject: affinity(src, TASK) + affinity(dst, OBJECT).
	AffTaskObject
	// AffProcessor: affinity(n, PROCESSOR) — direct placement.
	AffProcessor
)

// Affinity is the evaluated affinity specification of one spawn.
type Affinity struct {
	Kind      AffinityKind
	TaskObj   int64 // address for TASK affinity / default / simple
	ObjectObj int64 // address for OBJECT affinity
	Processor int   // server number for PROCESSOR affinity
}
