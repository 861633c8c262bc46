package core

import (
	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/sim"
	"github.com/coolrts/cool/internal/trace"
)

// Policy holds the tunable scheduling knobs studied in the paper.
type Policy struct {
	// IgnoreHints reproduces the paper's "Base" versions: every task is
	// placed round-robin across servers with no regard for locality.
	IgnoreHints bool

	// QueueArraySize is the number of task-affinity queues per server.
	// "Collisions of different task-affinity sets on the same queue can
	// be minimized by choosing a suitably large array size."
	QueueArraySize int

	// ClusterStealingOnly restricts stealing to servers in the thief's
	// cluster (the Panel Cholesky cluster-stealing experiment).
	ClusterStealingOnly bool

	// ClusterStealFirst makes thieves probe same-cluster victims before
	// remote ones (a "smart default" the paper suggests automating).
	ClusterStealFirst bool

	// StealWholeSets lets an idle processor steal an entire
	// task-affinity set so the set still enjoys cache reuse after the
	// move.
	StealWholeSets bool

	// StealObjectBound permits stealing object-affinity tasks as a last
	// resort. The paper argues such tasks "should preferably not be
	// stolen"; disabling trades load balance for locality.
	StealObjectBound bool

	// DisableStealing turns off work stealing entirely (tasks only run
	// on the server they were placed on) — an ablation knob.
	DisableStealing bool
}

// DefaultPolicy returns the runtime's default scheduling policy.
func DefaultPolicy() Policy {
	return Policy{
		QueueArraySize:    64,
		ClusterStealFirst: true,
		StealWholeSets:    true,
		StealObjectBound:  true,
	}
}

// server is the per-processor scheduling state: the paper's two kinds of
// task queues plus a resume queue for unblocked continuations.
type server struct {
	id     int
	resume Queue[TaskDesc]      // unblocked continuations (highest priority)
	q      QueueArray[TaskDesc] // task-affinity slots and the plain queue
	queued int                  // total tasks queued on this server
}

// defaultWakeFanout is the number of idle processors a targeted wakeup
// notifies. Waking the lowest-numbered parked processors matches the
// effective winner order of a full broadcast while queues are shallow;
// once the machine-wide backlog exceeds the fanout, wake falls back to
// broadcast so every idle processor joins the stealing.
const defaultWakeFanout = 4

// Scheduler implements sim.Dispatcher with the paper's policies.
type Scheduler struct {
	Cfg   machine.Config
	Pol   Policy
	pol   Policy // the policy NewScheduler was given, which Reset restores
	Eng   *sim.Engine
	Space *memsim.Space
	Mon   *perfmon.Monitor
	Trace *trace.Log // nil disables tracing
	Srv   []*server
	topo  Topo
	// home maps an object address to its home server — the processor
	// named when the page was allocated or last migrated (the paper's
	// footnote 3: the runtime tracks an object's location directly).
	// Space.HomeProc, bound once for Topo.Place.
	home    func(addr int64) int
	dead    ProcSet       // processors retired by fault injection
	rr      int           // round-robin cursor (Base mode, AffNone spread)
	failRR  int           // rotation cursor for failover redistribution
	setHome map[int64]int // task-affinity set -> server currently hosting it

	// Precomputed victim rings, one per thief. Built once at
	// construction and rebuilt only when a processor fails, so a steal
	// probe walks a ready-made slice instead of allocating and filtering
	// the victim list per probe.
	rings []Rings

	queuedTotal int // tasks queued machine-wide (sum of sv.queued)

	// setScratch batches the members of a set moved by a whole-set
	// steal, reused across steals.
	setScratch []*TaskDesc

	// setSplits counts task-affinity set members enqueued or stolen away
	// from their set's recorded home. Must stay zero under the default
	// whole-set-stealing policy; only the NoSetStealing fallback (taking
	// individual set members) legitimately splits sets.
	setSplits int64
}

// NewScheduler wires a scheduler to an engine.
func NewScheduler(cfg machine.Config, pol Policy, eng *sim.Engine, space *memsim.Space, mon *perfmon.Monitor) *Scheduler {
	if pol.QueueArraySize <= 0 {
		pol.QueueArraySize = 64
	}
	s := &Scheduler{Cfg: cfg, Pol: pol, pol: pol, Eng: eng, Space: space, Mon: mon,
		topo: Topo{Procs: cfg.Processors, ClusterSize: cfg.ClusterSize,
			PageSize: int64(cfg.PageSize), QueueArraySize: pol.QueueArraySize},
		home:    space.HomeProc,
		setHome: make(map[int64]int)}
	s.Srv = make([]*server, cfg.Processors)
	s.rings = make([]Rings, cfg.Processors)
	for i := range s.Srv {
		sv := &server{id: i}
		sv.q.Init(pol.QueueArraySize)
		s.Srv[i] = sv
	}
	s.rebuildVictimRings()
	eng.SetDispatcher(s)
	eng.SetSnapshot(s)
	return s
}

// Reset returns the scheduler to its state at NewScheduler, in place:
// the policy as constructed (SetClusterStealingOnly may have flipped
// it), every queue empty, no set home, no dead server, the cursors and
// counters at zero and the trace log empty. The engine, space and
// monitor it was wired to are reset by their owner.
func (s *Scheduler) Reset() {
	s.Pol = s.pol
	for _, sv := range s.Srv {
		sv.resume = Queue[TaskDesc]{}
		sv.q.Reset()
		sv.queued = 0
	}
	if s.dead != 0 {
		s.dead = 0
		s.rebuildVictimRings()
	}
	clear(s.setHome)
	s.rr, s.failRR, s.queuedTotal, s.setSplits = 0, 0, 0, 0
	s.Trace.Reset()
}

// rebuildVictimRings recomputes every thief's probe order. Called at
// construction and after a processor failure.
func (s *Scheduler) rebuildVictimRings() {
	for t := range s.rings {
		s.rings[t].Build(s.topo, t, s.dead)
	}
}

// noteEnqueued accounts n tasks added to sv's queues.
func (s *Scheduler) noteEnqueued(sv *server, n int) {
	sv.queued += n
	s.queuedTotal += n
}

// noteDequeued accounts n tasks removed from sv's queues.
func (s *Scheduler) noteDequeued(sv *server, n int) {
	sv.queued -= n
	s.queuedTotal -= n
}

// Place resolves an affinity specification to (class, server, slot,
// setObj): Table 1 through Topo.Place, plus the two choices that need
// the scheduler's own state — Base-mode round-robin, and which server
// hosts a task-affinity set. A set stays on one server while it is
// active; distinct sets spread round-robin. If the preferred server has been
// retired by fault injection, the placement falls over to the nearest
// surviving server (task-affinity sets re-home as a unit).
func (s *Scheduler) Place(a Affinity, spawner int) (Class, int, int, int64) {
	if s.Pol.IgnoreHints {
		return ClassPlain, s.aliveServer(s.nextRR()), -1, 0
	}
	class, sv, slot, obj := s.topo.Place(a, spawner, s.home)
	if class == ClassTaskSet {
		var ok bool
		if sv, ok = s.setHome[obj]; !ok {
			sv = s.nextRR()
			s.setHome[obj] = sv
		}
	}
	if s.dead.Has(sv) {
		sv = s.aliveServer(sv)
		if class == ClassTaskSet {
			s.setHome[obj] = sv
		}
	}
	return class, sv, slot, obj
}

// nextRR advances the round-robin placement cursor.
func (s *Scheduler) nextRR() int {
	sv := s.rr % s.Cfg.Processors
	s.rr++
	return sv
}

// SetClusterStealingOnly flips the cluster-stealing restriction at run
// time — the paper's Panel Cholesky experiment controls this "through a
// runtime flag that can be dynamically manipulated by the programmer"
// (§6.3).
func (s *Scheduler) SetClusterStealingOnly(on bool) {
	s.Pol.ClusterStealingOnly = on
}

// reroute maps a task's target server off a dead processor. A
// task-affinity set member follows its set's current (surviving) home so
// the set stays together; if the set's recorded home is itself dead, the
// member re-homes the set and later placements follow it.
func (s *Scheduler) reroute(td *TaskDesc, from int) int {
	if h := s.liveSetHome(td); h >= 0 {
		return h
	}
	tgt := s.aliveServer(from)
	if td.Class == ClassTaskSet {
		s.setHome[td.AffObj] = tgt
	}
	return tgt
}

// Enqueue places a ready task on its server's queues and wakes idle
// processors. now is the simulated time the task became available.
func (s *Scheduler) Enqueue(td *TaskDesc, now int64) {
	if s.dead.Has(td.Server) {
		td.Server = s.reroute(td, td.Server)
	}
	if td.Class == ClassTaskSet {
		if h, ok := s.setHome[td.AffObj]; ok && h != td.Server {
			s.setSplits++
		}
	}
	sv := s.Srv[td.Server]
	td.Item = td // the queues hand the descriptor back through its link
	sv.q.Push(&td.Link)
	s.noteEnqueued(sv, 1)
	s.Trace.Add(now, -1, trace.KindEnqueue, td.T.Name, int64(td.Server))
	s.wake(td.Server, now)
}

// Resume re-enqueues an unblocked continuation on the server it last ran
// on and wakes idle processors.
func (s *Scheduler) Resume(td *TaskDesc, now int64) {
	s.Eng.Unblock(td.T, now)
	if s.dead.Has(td.LastProc) {
		td.LastProc = s.reroute(td, td.LastProc)
	}
	sv := s.Srv[td.LastProc]
	sv.resume.push(&td.Link)
	s.noteEnqueued(sv, 1)
	s.Trace.Add(now, -1, trace.KindReady, td.T.Name, int64(td.LastProc))
	s.wake(td.LastProc, now)
}

// wake notifies the preferred server immediately and idle thieves after
// the idle-poll delay, so a task's home server gets first crack at it
// before thieves do. While the machine-wide backlog is shallow only the
// first defaultWakeFanout idle processors are woken (a full broadcast
// would wake every parked processor to race for at most a handful of
// tasks); once queues back up the wake falls back to broadcast. Counters
// record only wakes that reached a parked processor other than the home
// server — the home server's direct notify is the uncounted NotifyProc,
// so an idle-free machine (or a lone processor waking itself) counts
// nothing, matching the native backend's token-deposit accounting (there
// the direct target's token slot is already full when the policy runs).
func (s *Scheduler) wake(server int, now int64) {
	self := 0
	if s.Eng.Procs[server].Parked() {
		self = 1 // home server is among the idle bits; its notify is direct
	}
	s.Eng.NotifyProc(s.Eng.Procs[server], now)
	if s.Pol.DisableStealing {
		return
	}
	t := now + s.Cfg.Lat.IdlePoll
	if s.queuedTotal > defaultWakeFanout {
		if s.Eng.NotifyWork(t) > self {
			s.Mon.Per[server].BroadcastWakes++
		}
	} else if s.Eng.NotifyIdle(t, defaultWakeFanout) > self {
		s.Mon.Per[server].TargetedWakes++
	}
}

// Dispatch implements sim.Dispatcher: local queues first (continuations,
// then the task-affinity slot being drained back to back, then other
// non-empty slots, then the plain queue), then stealing.
func (s *Scheduler) Dispatch(p *sim.Proc) *sim.Task {
	sv := s.Srv[p.ID]
	if s.dead.Has(p.ID) {
		return nil
	}
	lat := &s.Cfg.Lat

	if td := s.takeLocal(sv); td != nil {
		p.Clock += lat.Dispatch
		return s.issue(td, p)
	}
	if td := s.steal(p, sv); td != nil {
		p.Clock += lat.Dispatch
		return s.issue(td, p)
	}
	return nil
}

// takeLocal removes the next task from sv's own queues.
func (s *Scheduler) takeLocal(sv *server) *TaskDesc {
	td := sv.resume.pop()
	if td == nil {
		td = sv.q.Take()
	}
	if td != nil {
		s.noteDequeued(sv, 1)
	}
	return td
}

// steal scans victims for work, preferring whole task-affinity sets, then
// plain tasks, then continuations, and finally (reluctantly)
// object-affinity tasks.
func (s *Scheduler) steal(p *sim.Proc, thief *server) *TaskDesc {
	if s.Pol.DisableStealing {
		return nil
	}
	first, second := s.rings[p.ID].Order(s.Pol.ClusterStealFirst, s.Pol.ClusterStealingOnly)
	if td := s.stealScan(p, thief, first); td != nil {
		return td
	}
	return s.stealScan(p, thief, second)
}

// stealScan probes one precomputed victim ring in order.
func (s *Scheduler) stealScan(p *sim.Proc, thief *server, ring []int) *TaskDesc {
	ctr := &s.Mon.Per[p.ID]
	lat := &s.Cfg.Lat
	for _, vid := range ring {
		v := s.Srv[vid]
		if v.queued == 0 {
			continue
		}
		local := s.Cfg.SameCluster(p.ID, vid)
		ctr.StealTries++
		if local {
			p.Clock += lat.StealLocal
		} else {
			p.Clock += lat.StealRemote
		}
		td := s.stealFrom(v, thief, p.ID)
		if td == nil {
			ctr.FailedSteals++
			continue
		}
		if local {
			ctr.StealsLocal++
		} else {
			ctr.StealsRemote++
		}
		s.Trace.Add(p.Clock, p.ID, trace.KindSteal, td.T.Name, int64(vid))
		return td
	}
	return nil
}

// victimOrder returns the servers a thief would probe, in order.
// (Diagnostics and tests; the steal path walks the rings directly.)
func (s *Scheduler) victimOrder(thief int) []int {
	first, second := s.rings[thief].Order(s.Pol.ClusterStealFirst, s.Pol.ClusterStealingOnly)
	return append(append([]int(nil), first...), second...)
}

// stealFrom takes work from victim v for the thief. Preference order:
// a whole task-affinity set, a plain task, a continuation, and finally a
// single object-bound task if policy permits.
func (s *Scheduler) stealFrom(v, thief *server, thiefID int) *TaskDesc {
	// A whole task-affinity set (ClassTaskSet at the head of some slot).
	if s.Pol.StealWholeSets && v.q.HasSetHead() {
		moved := v.q.StealSet(&thief.q, s.setScratch[:0])
		s.setScratch = moved
		s.noteDequeued(v, len(moved))
		s.noteEnqueued(thief, len(moved)-1)
		s.setHome[moved[0].AffObj] = thiefID
		for _, td := range moved {
			td.Server = thiefID
		}
		s.Mon.Per[thiefID].SetSteals++
		return moved[0]
	}
	// A plain task, scanning past explicitly placed (processor-affinity)
	// ones: they should stay put while a freely stealable task sits
	// behind them. Then the reluctant gate (Policy.MayStealHead) on the
	// plain head, a parked continuation, and last one object-bound (or
	// task-set, if set stealing is off) task from some slot.
	td := v.q.TakeUnpinned()
	if td == nil {
		td = v.q.TakePlainHead(&s.Pol, v.queued)
	}
	if td == nil {
		td = v.resume.pop()
	}
	if td == nil {
		if td = v.q.TakeSlotHead(&s.Pol, v.queued); td != nil && td.Class == ClassTaskSet {
			s.setSplits++
		}
	}
	if td != nil {
		s.noteDequeued(v, 1)
	}
	return td
}

// SetSplits returns how often a task-affinity set member was enqueued or
// stolen away from its set's recorded home (see the field comment).
func (s *Scheduler) SetSplits() int64 { return s.setSplits }

// issue finalizes a dispatch decision: perfmon accounting and bookkeeping.
func (s *Scheduler) issue(td *TaskDesc, p *sim.Proc) *sim.Task {
	td.LastProc = p.ID
	if !td.dispatched {
		td.dispatched = true
		ctr := &s.Mon.Per[p.ID]
		ctr.TasksRun++
		if td.Server == p.ID {
			ctr.TasksAtHome++
		}
	}
	s.Trace.Add(p.Clock, p.ID, trace.KindRun, td.T.Name, 0)
	return td.T
}

// TraceBlock records that the running task parked (called by the
// synchronization objects and the public runtime).
func (s *Scheduler) TraceBlock(ctx *sim.Ctx) {
	s.Trace.Add(ctx.Now(), ctx.Proc().ID, trace.KindBlock, ctx.Task().Name, 0)
}

// TraceDone records task completion (called by the task wrapper).
func (s *Scheduler) TraceDone(ctx *sim.Ctx) {
	s.Trace.Add(ctx.Now(), ctx.Proc().ID, trace.KindDone, ctx.Task().Name, 0)
}
