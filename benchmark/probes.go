package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/serve"
)

// Direct probes: each times calls into one layer's exported functions
// from outside, a fixed number of batches of a fixed number of calls,
// and reports the best-quartile batch's time per call.

const probeBatches = 9

// perOp runs batches of iters calls of f and returns the best-quartile
// time per call in nanoseconds.
func perOp(iters int, f func()) float64 {
	times := make([]float64, probeBatches)
	for b := range times {
		t0 := time.Now()
		for range iters {
			f()
		}
		times[b] = float64(time.Since(t0)) / float64(iters)
	}
	return bestQuartile(times, false)
}

// timed returns how long f took in nanoseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0))
}

// probeErr keeps the first error of a probe whose timed closure cannot
// return one.
type probeErr struct{ err error }

func (p *probeErr) set(err error) {
	if p.err == nil {
		p.err = err
	}
}

// runProbes runs every probe and adds its metrics to m. kinds are the
// workload's distinct jobs, for the native scaling probe.
func runProbes(m map[string]float64, procs int, kinds []job, quick bool) error {
	scale := func(n int) int {
		if quick {
			return max(1, n/50)
		}
		return n
	}
	return errors.Join(
		probeServePolicies(m, procs, scale),
		probeServePool(m, procs, scale),
		probeApps(m, scale),
		probeRuntime(m, procs, scale),
		probeSpawn(m, procs, scale),
		probeScaling(m, procs, kinds, scale),
		probeSim(m, scale),
	)
}

// probeServePolicies times the default admission and routing policies
// on their own.
func probeServePolicies(m map[string]float64, procs int, scale func(int) int) error {
	admission, err := serve.NewAdmission("always", serve.AdmissionConfig{})
	if err != nil {
		return err
	}
	router, err := serve.NewRouter("space-affinity", procs)
	if err != nil {
		return err
	}
	stats := make([]serve.EntryStat, serveRuntimes)
	for i := range stats {
		stats[i] = serve.EntryStat{ID: i, Alive: procs}
	}
	jobs := make([]*serve.Job, 8)
	for i := range jobs {
		jobs[i] = &serve.Job{ID: fmt.Sprintf("probe-%d", i), Req: serve.Request{App: "pancho", Key: fmt.Sprintf("tenant%d", i)}}
	}
	i := 0
	m["serve.admission.admit_ns"] = perOp(scale(200_000), func() {
		_ = admission.Admit(jobs[i%len(jobs)], stats) // "always" never refuses
		i++
	})
	m["serve.router.pick_ns"] = perOp(scale(200_000), func() {
		router.Pick(jobs[i%len(jobs)], stats)
		i++
	})
	return nil
}

// probeServePool times a job that does nothing through the pool, in
// process and over HTTP, and the residency cache from inside a runner
// (the only place a Residency with capacity can be reached).
func probeServePool(m map[string]float64, procs int, scale func(int) int) error {
	var lookupNS float64
	runner := func(_ *cool.Runtime, j *serve.Job, res *serve.Residency) (string, error) {
		if j.Req.App != "residency-probe" {
			return "ok", nil
		}
		spaces := make([]*serve.Job, residentSpaces)
		for i := range spaces {
			spaces[i] = &serve.Job{Req: serve.Request{App: "pancho", Key: fmt.Sprintf("tenant%d", i)}}
			res.Store(spaces[i], i)
		}
		i := 0
		lookupNS = perOp(scale(100_000), func() {
			res.Lookup(spaces[i%len(spaces)]) // always the least recently used: a full reorder
			i++
		})
		return "ok", nil
	}
	svc, err := serve.NewService(serve.Config{Runtimes: serveRuntimes, Procs: procs, ResidentSpaces: residentSpaces, Runner: runner})
	if err != nil {
		return err
	}
	s := &httpSession{}
	if err := s.listen(serve.Handler(svc), 1); err != nil {
		svc.Drain()
		return err
	}
	s.svc = svc
	defer s.close()

	var pe probeErr
	submit := func(app string) {
		sj, err := svc.Submit(serve.Request{App: app})
		if err != nil {
			pe.set(err)
			return
		}
		<-sj.Done()
	}
	submit("residency-probe")
	m["serve.residency.lookup_ns"] = lookupNS
	m["serve.pool.noop_job_us"] = perOp(scale(2000), func() { submit("noop") }) / 1e3

	body := []byte(`{"app":"noop"}`)
	client := s.conns[0]
	var posted serve.Snapshot
	post := func() {
		var err error
		if posted, err = call(client, http.MethodPost, s.url+"/jobs", body, http.StatusAccepted); err != nil {
			pe.set(err)
		}
	}
	get := func() {
		if _, err := call(client, http.MethodGet, s.url+"/jobs/"+posted.ID, nil, http.StatusOK); err != nil {
			pe.set(err)
		}
	}
	wait := func() {
		if sj, ok := svc.Job(posted.ID); ok {
			<-sj.Done()
		}
	}
	m["serve.http.post_us"] = perOp(scale(1000), post) / 1e3
	wait()
	m["serve.http.get_us"] = perOp(scale(1000), get) / 1e3
	m["serve.http.noop_job_us"] = perOp(scale(1000), func() { post(); wait(); get() }) / 1e3
	return pe.err
}

// warmNative builds the native runtime the apps and runtime probes
// reuse, Reset between runs as the serving layer does.
func warmNative(procs int, cfg cool.Config) (*cool.Runtime, error) {
	cfg.Processors, cfg.Backend = procs, cool.BackendNative
	return cool.NewRuntime(cfg)
}

// probeApps times pancho's analyze phase and its run with and without
// the prepared handle: what a residency hit saves. On one worker, as
// serve-affinity runs it.
func probeApps(m map[string]float64, scale func(int) int) error {
	rt, err := warmNative(affinityProcs, cool.Config{})
	if err != nil {
		return err
	}
	var pe probeErr
	var prep any
	m["apps.prepare_ms"] = perOp(scale(50), func() {
		var err error
		if prep, err = apps.PrepareCatalog("pancho", "small"); err != nil {
			pe.set(err)
		}
	}) / 1e6
	run := func(prep any) float64 {
		var times []float64
		for range scale(100) {
			times = append(times, timed(func() {
				if _, err := apps.RunCatalogPrepared(rt, "pancho", "small", prep); err != nil {
					pe.set(err)
				}
			}))
			if err := rt.Reset(); err != nil {
				pe.set(err)
				break
			}
		}
		return bestQuartile(times, false) / 1e6
	}
	m["apps.run_prepared_ms"] = run(prep)
	m["apps.run_unprepared_ms"] = run(nil)
	return pe.err
}

// probeRuntime times the runtime's life cycle: build, an empty run,
// Reset, and what switching the scheduler trace on costs a job.
func probeRuntime(m map[string]float64, procs int, scale func(int) int) error {
	var pe probeErr
	build := func(cfg cool.Config) func() {
		return func() {
			if _, err := cool.NewRuntime(cfg); err != nil {
				pe.set(err)
			}
		}
	}
	m["cool.new_runtime_us.native"] = perOp(scale(200), build(cool.Config{Processors: procs, Backend: cool.BackendNative})) / 1e3
	m["cool.new_runtime_us.sim"] = perOp(scale(200), build(cool.Config{Processors: 32})) / 1e3

	rt, err := warmNative(procs, cool.Config{})
	if err != nil {
		return err
	}
	var runs, resets []float64
	for range scale(2000) {
		runs = append(runs, timed(func() {
			if err := rt.Run(func(*cool.Ctx) {}); err != nil {
				pe.set(err)
			}
		}))
		resets = append(resets, timed(func() {
			if err := rt.Reset(); err != nil {
				pe.set(err)
			}
		}))
		if pe.err != nil {
			return pe.err
		}
	}
	m["cool.run_empty_us"] = bestQuartile(runs, false) / 1e3
	m["cool.reset_us"] = bestQuartile(resets, false) / 1e3

	// The same job with the scheduler trace off and on, interleaved.
	traced, err := warmNative(procs, cool.Config{TraceCapacity: 1 << 16})
	if err != nil {
		return err
	}
	job := func(rt *cool.Runtime) float64 {
		ns := timed(func() {
			if _, err := apps.RunCatalogOn(rt, "gauss", "medium"); err != nil {
				pe.set(err)
			}
		})
		if err := rt.Reset(); err != nil {
			pe.set(err)
		}
		return ns
	}
	var off, on []float64
	for range scale(150) {
		off = append(off, job(rt))
		on = append(on, job(traced))
		if pe.err != nil {
			return pe.err
		}
	}
	m["cool.trace_on_share"] = ratio(bestQuartile(on, false), bestQuartile(off, false)) - 1
	return pe.err
}

// probeSpawn times spawn-to-completion of tasks that do nothing, per
// spawn flavour, inside one run each.
func probeSpawn(m map[string]float64, procs int, scale func(int) int) error {
	rt, err := warmNative(procs, cool.Config{})
	if err != nil {
		return err
	}
	n := scale(20_000)
	noop := func(*cool.Ctx) {}
	// measure runs body once per batch inside a WaitFor, so a batch ends
	// when all n tasks have run, and returns ns and heap objects per task.
	measure := func(body func(ctx *cool.Ctx, objs []cool.Obj)) (ns, allocs float64, err error) {
		times := make([]float64, probeBatches)
		var mallocs uint64
		for b := range times {
			var m0, m1 runtime.MemStats
			err := rt.Run(func(ctx *cool.Ctx) {
				objs := make([]cool.Obj, 16)
				for i := range objs {
					objs[i] = ctx.NewObj(64)
				}
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				ctx.WaitFor(func() { body(ctx, objs) })
				times[b] = float64(time.Since(t0)) / float64(n)
				runtime.ReadMemStats(&m1)
			})
			if err != nil {
				return 0, 0, err
			}
			mallocs += m1.Mallocs - m0.Mallocs
			if err := rt.Reset(); err != nil {
				return 0, 0, err
			}
		}
		return bestQuartile(times, false), float64(mallocs) / float64(n*probeBatches), nil
	}
	flavours := []struct {
		name string
		body func(ctx *cool.Ctx, objs []cool.Obj)
	}{
		{"cool.spawn_ns", func(ctx *cool.Ctx, _ []cool.Obj) {
			for range n {
				ctx.Spawn("t", noop)
			}
		}},
		{"cool.spawnn_ns", func(ctx *cool.Ctx, _ []cool.Obj) {
			ctx.SpawnN("t", n, func(*cool.Ctx, int) {}, nil)
		}},
		{"cool.spawn_taskaff_ns", func(ctx *cool.Ctx, objs []cool.Obj) {
			for i := range n {
				ctx.Spawn("t", noop, cool.TaskAffinity(objs[i%len(objs)].Base))
			}
		}},
		{"cool.spawn_objaff_ns", func(ctx *cool.Ctx, objs []cool.Obj) {
			for i := range n {
				ctx.Spawn("t", noop, cool.ObjectAffinity(objs[i%len(objs)].Base))
			}
		}},
	}
	for _, f := range flavours {
		ns, allocs, err := measure(f.body)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		m[f.name] = ns
		if f.name == "cool.spawn_ns" {
			m["cool.spawn_allocs"] = allocs
		}
	}
	return nil
}

// probeScaling runs the workload's native job kinds on one worker and
// on procs workers. The ratio is a speedup only because procs never
// exceeds the cores; simulator jobs have no native scaling.
func probeScaling(m map[string]float64, procs int, kinds []job, scale func(int) int) error {
	seen := make(map[string]bool)
	var t1, tp float64
	for _, j := range kinds {
		if j.Procs != 0 || j.App == "pancho" || seen[j.kind()] {
			continue // pancho only ever runs on one worker: see affinityProcs
		}
		seen[j.kind()] = true
		for _, p := range []int{1, procs} {
			rt, err := warmNative(p, cool.Config{})
			if err != nil {
				return err
			}
			var times []float64
			for range max(3, scale(12)) {
				var runErr error
				times = append(times, timed(func() { _, runErr = apps.RunCatalogOn(rt, j.App, j.Size) }))
				if runErr == nil {
					runErr = rt.Reset()
				}
				if runErr != nil {
					return fmt.Errorf("%s at P=%d: %w", j.kind(), p, runErr)
				}
			}
			if p == 1 {
				t1 += bestQuartile(times, false)
			}
			if p == procs {
				tp += bestQuartile(times, false)
			}
		}
	}
	m["native.speedup_p"] = ratio(t1, tp)
	m["native.efficiency"] = ratio(t1, tp*float64(procs))
	return nil
}

// probeSim times the simulator's two inner loops through the public
// API: dispatching tasks that only compute, and one task streaming
// references through the simulated memory system.
func probeSim(m map[string]float64, scale func(int) int) error {
	tasks, refs := scale(20_000), scale(200_000)
	var engine, memsim []float64
	for range 5 {
		rt, err := cool.NewRuntime(cool.Config{Processors: 8})
		if err != nil {
			return err
		}
		var ns float64
		if err := rt.Run(func(ctx *cool.Ctx) {
			ns = timed(func() {
				ctx.WaitFor(func() {
					for range tasks {
						ctx.Spawn("t", func(c *cool.Ctx) { c.Compute(100) })
					}
				})
			})
		}); err != nil {
			return err
		}
		engine = append(engine, ns/float64(tasks))

		rt, err = cool.NewRuntime(cool.Config{Processors: 8})
		if err != nil {
			return err
		}
		if err := rt.Run(func(ctx *cool.Ctx) {
			const words = 1 << 16
			arr := ctx.NewF64(words)
			ns = timed(func() {
				for i := range refs {
					ctx.Access(arr.Addr(i%words), 8, false)
				}
			})
		}); err != nil {
			return err
		}
		memsim = append(memsim, ns/float64(refs))
	}
	m["sim.engine.ns_per_task"] = bestQuartile(engine, false)
	m["sim.memsim.ns_per_ref"] = bestQuartile(memsim, false)
	return nil
}
