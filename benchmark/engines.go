package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// nativeCounters sums the native backend's per-job reports.
type nativeCounters struct {
	jobs           int64
	tasks          int64
	atHome         int64
	steals         int64
	failedSteals   int64
	setSteals      int64
	wakes          int64
	spawnBatches   int64
	lockContention int64
	setSplits      int64
	elapsedNS      int64
	busyNS         int64
}

func (n *nativeCounters) add(r cool.Report) {
	t := r.Total
	n.jobs++
	n.tasks += t.TasksRun
	n.atHome += t.TasksAtHome
	n.steals += t.StealsLocal + t.StealsRemote
	n.failedSteals += t.FailedSteals
	n.setSteals += t.SetSteals
	n.wakes += t.TargetedWakes + t.BroadcastWakes
	n.spawnBatches += t.SpawnBatches
	n.lockContention += t.LockContention
	n.setSplits += r.SetSplits
	n.elapsedNS += r.Cycles
	n.busyNS += r.BusyCycles
}

func (n nativeCounters) layers(m map[string]float64, procs int) {
	jobs := float64(n.jobs)
	m["native.tasks_per_job"] = ratio(float64(n.tasks), jobs)
	m["native.ns_per_task"] = ratio(float64(n.elapsedNS), float64(n.tasks))
	m["native.steals_per_job"] = ratio(float64(n.steals), jobs)
	m["native.failed_steals_per_job"] = ratio(float64(n.failedSteals), jobs)
	m["native.steal_hit_share"] = ratio(float64(n.steals), float64(n.steals+n.failedSteals))
	m["native.set_steals_per_job"] = ratio(float64(n.setSteals), jobs)
	m["native.wakes_per_job"] = ratio(float64(n.wakes), jobs)
	m["native.spawn_batches_per_job"] = ratio(float64(n.spawnBatches), jobs)
	m["native.lock_contention_per_job"] = ratio(float64(n.lockContention), jobs)
	m["native.busy_share"] = ratio(float64(n.busyNS), float64(n.elapsedNS)*float64(procs))
	m["native.home_share"] = ratio(float64(n.atHome), float64(n.tasks))
	m["native.set_splits"] = float64(n.setSplits)
}

// --- native-fine -----------------------------------------------------

// nativeSession is one warm native runtime and one driver.
type nativeSession struct {
	procs  int
	rt     *cool.Runtime
	tr     *tracer
	seq    int
	broken error // why the runtime cannot run another job
	native nativeCounters
}

func openNative(procs int, tr *tracer) (session, error) {
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative})
	if err != nil {
		return nil, err
	}
	return &nativeSession{procs: procs, rt: rt, tr: tr}, nil
}

func (s *nativeSession) close() {} // workers exist only inside Run

func (s *nativeSession) layers(m map[string]float64) { s.native.layers(m, s.procs) }

func (s *nativeSession) runBlock(ctx context.Context, jobs []job, rec *recorder) {
	runClients(ctx, 1, jobs, func(_ int, j job) {
		s.seq++
		id := fmt.Sprintf("native-%d", s.seq)
		if s.broken != nil {
			rec.fail(s.broken)
			return
		}
		issued := time.Now()
		r, err := apps.RunCatalogOn(s.rt, j.App, j.Size)
		ran := time.Now()
		if err != nil {
			s.broken = fmt.Errorf("%s: %w", j.kind(), err)
			rec.fail(s.broken)
			return
		}
		s.native.add(r.Report)
		end := rec.done(j, r.Verify, issued)
		if err := s.rt.Reset(); err != nil {
			s.broken = fmt.Errorf("reset after %s: %w", j.kind(), err)
		}
		if s.tr != nil {
			s.tr.add(id, "apps.run", rootSpan, s.tr.at(issued), s.tr.at(ran))
			s.tr.add(id, "client.verify", rootSpan, s.tr.at(ran), s.tr.at(end))
			s.tr.add(id, rootSpan, "", s.tr.at(issued), s.tr.at(end))
			// Reset re-arms the runtime for the next job after this
			// one's result is in hand: its own root, outside the latency.
			s.tr.add(id, "cool.reset", "", s.tr.at(end), s.tr.now())
		}
	})
}

// --- sim-figures -----------------------------------------------------

// simProcs are the simulated machine sizes of the figure list.
var simProcs = []int{8, 32}

// simSession runs catalog apps on the deterministic simulator, a fresh
// simulated machine per job, as coolbench -exp does.
type simSession struct {
	tr  *tracer
	seq int

	serialCycles map[string]int64 // app/size -> RunSerial cycles
	// first is each job's report the first time it ran; every later
	// run of that job must reproduce its simulated counts exactly.
	first map[job]cool.Report
	drift int // runs whose simulated counts differed from the first

	// Host time and simulated work summed over every run, for the
	// host cost per simulated event.
	hostNS, tasks, refs, cycles float64
}

func openSim(e env) (session, error) {
	return &simSession{tr: e.tr, serialCycles: e.chk.serialCycles, first: make(map[job]cool.Report)}, nil
}

func (s *simSession) close() {}

func (s *simSession) runBlock(ctx context.Context, jobs []job, rec *recorder) {
	runClients(ctx, 1, jobs, func(_ int, j job) {
		s.seq++
		id := fmt.Sprintf("sim-%d", s.seq)
		issued := time.Now()
		r, err := runSim(j)
		ran := time.Now()
		if err != nil {
			rec.fail(fmt.Errorf("%s: %w", j.kind(), err))
			return
		}
		if first, ok := s.first[j]; !ok {
			s.first[j] = r.Report
		} else if first.Cycles != r.Report.Cycles || first.Total != r.Report.Total {
			s.drift++
		}
		s.hostNS += float64(ran.Sub(issued))
		s.tasks += float64(r.Report.Total.TasksRun)
		s.refs += float64(r.Report.Total.Refs)
		s.cycles += float64(r.Report.Cycles)
		end := rec.done(j, r.Verify, issued)
		if s.tr != nil {
			s.tr.add(id, "apps.run", rootSpan, s.tr.at(issued), s.tr.at(ran))
			s.tr.add(id, "client.verify", rootSpan, s.tr.at(ran), s.tr.at(end))
			s.tr.add(id, rootSpan, "", s.tr.at(issued), s.tr.at(end))
		}
	})
}

// runSim executes one job on a fresh simulated machine of j.Procs
// processors, at the catalog's variant.
func runSim(j job) (apps.Result, error) {
	a, ok := apps.Lookup(j.App)
	if !ok {
		return apps.Result{}, fmt.Errorf("no app %q", j.App)
	}
	e, ok := apps.CatalogLookup(j.App)
	if !ok {
		return apps.Result{}, fmt.Errorf("no catalog entry %q", j.App)
	}
	n, err := apps.CatalogSize(j.App, j.Size)
	if err != nil {
		return apps.Result{}, err
	}
	return a.Run(j.Procs, e.Variant, n)
}

// layers reports the simulated counts of one pass over the figure list
// (each kind once). They are exact: a change meant only to speed the
// simulator up must leave every one of them identical.
func (s *simSession) layers(m map[string]float64) {
	var total cool.Counters
	var cycles int64
	logSpeedup, n32 := 0.0, 0
	jobs := make([]job, 0, len(s.first))
	for j := range s.first {
		jobs = append(jobs, j)
	}
	// A fixed order, so that the floating-point sum repeats bit for bit.
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].kind() < jobs[k].kind() })
	for _, j := range jobs {
		r := s.first[j]
		cycles += r.Cycles
		t := r.Total
		total.TasksRun += t.TasksRun
		total.TasksAtHome += t.TasksAtHome
		total.Refs += t.Refs
		total.LocalMisses += t.LocalMisses
		total.RemoteMisses += t.RemoteMisses
		total.DirtyMisses += t.DirtyMisses
		total.StealsLocal += t.StealsLocal
		total.StealsRemote += t.StealsRemote
		total.FailedSteals += t.FailedSteals
		total.TargetedWakes += t.TargetedWakes
		total.BroadcastWakes += t.BroadcastWakes
		if j.Procs == 32 {
			logSpeedup += math.Log(float64(s.serialCycles[j.App+"/"+j.Size]) / float64(r.Cycles))
			n32++
		}
	}
	m["sim.cycles_total"] = float64(cycles)
	m["sim.tasks_total"] = float64(total.TasksRun)
	m["sim.refs_total"] = float64(total.Refs)
	m["sim.miss_rate"] = total.MissRate()
	m["sim.local_fraction"] = total.LocalFraction()
	m["sim.home_share"] = total.HomeFraction()
	m["sim.steals_total"] = float64(total.StealsLocal + total.StealsRemote)
	m["sim.failed_steals_total"] = float64(total.FailedSteals)
	m["sim.wakes_total"] = float64(total.TargetedWakes + total.BroadcastWakes)
	if n32 > 0 {
		m["sim.speedup_geomean_p32"] = math.Exp(logSpeedup / float64(n32))
	}
	m["sim.host_ns_per_task"] = ratio(s.hostNS, s.tasks)
	m["sim.host_ns_per_ref"] = ratio(s.hostNS, s.refs)
	m["sim.host_ns_per_kcycle"] = ratio(s.hostNS, s.cycles/1000)
	m["sim.count_drift"] = float64(s.drift)
}
