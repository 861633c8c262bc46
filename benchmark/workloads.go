package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/coolrts/cool/internal/apps"
)

// env is what a workload's session is opened with.
type env struct {
	procs int      // P: worker count of every native runtime, and the client limit
	tr    *tracer  // nil in the untraced pass
	chk   *checker // references, and the serial runs' simulated cycles
}

// workload is one closed-loop traffic shape over one slice of the
// system. Every block of a workload is the same multiset of jobs.
type workload struct {
	name string
	why  string
	// mix is one block's jobs; quick shrinks it to a smoke test.
	mix func(quick bool) []mixEntry
	// coldStarts is how many cold starts one set-up repeat makes, sized
	// so that a repeat takes at least 0.1 s: shorter set-ups did not
	// repeat from run to run.
	coldStarts int
	// coldStart, when non-nil, replaces the default cold start (open a
	// fresh session, run each distinct job of the mix once, close).
	coldStart func(jobs []job) error
	open      func(env) (session, error)
}

func scaled(n int, quick bool) int {
	if quick {
		return max(1, n/40)
	}
	return n
}

var workloads = []workload{
	{
		name: "serve-affinity",
		why:  "keyed pancho tenants in process on two one-worker runtimes, queues formed: routing, residency, the analyze/factorize split and head-of-line blocking do the work; the native scheduler does little",
		mix: func(quick bool) []mixEntry {
			// tenant0 is the heavy tenant: medium jobs, 3 % of the block.
			mix := []mixEntry{{job{App: "pancho", Size: "medium", Key: "tenant0"}, scaled(12, quick)}}
			for t := 1; t <= 7; t++ {
				n := 55
				if t <= 3 {
					n = 56
				}
				mix = append(mix, mixEntry{job{App: "pancho", Size: "small", Key: fmt.Sprintf("tenant%d", t)}, scaled(n, quick)})
			}
			return mix
		},
		coldStarts: 2,
		open:       func(e env) (session, error) { return openAffinity(e.procs, e.tr) },
	},
	{
		name: "serve-http-keyless",
		why:  "keyless small jobs over loopback HTTP, no queue: fixed per-job cost (HTTP, JSON, admit, route, Reset, worker start and park) dominates; residency and routing changes must not move it",
		mix: func(quick bool) []mixEntry {
			var mix []mixEntry
			for _, app := range []string{"gauss", "ocean", "locusroute", "barneshut", "blockcho"} {
				mix = append(mix, mixEntry{job{App: app, Size: "small"}, scaled(200, quick)})
			}
			return mix
		},
		coldStarts: 24,
		open:       func(e env) (session, error) { return openHTTP(e.procs, e.tr) },
	},
	{
		name: "native-fine",
		why:  "one warm native runtime, fine-grained large jobs, no serve layer: thousands of tasks and steals per job, so spawn, deque, steal and park/wake are the job",
		mix: func(quick bool) []mixEntry {
			var mix []mixEntry
			for _, app := range []string{"gauss", "ocean", "locusroute"} {
				mix = append(mix, mixEntry{job{App: app, Size: "large"}, scaled(40, quick)})
			}
			return mix
		},
		coldStarts: 6,
		open:       func(e env) (session, error) { return openNative(e.procs, e.tr) },
	},
	{
		name: "sim-figures",
		why:  "the deterministic simulator on the seven catalog apps at 8 and 32 simulated processors: the only workload where sim, core, memsim and cache work; every simulated count must repeat exactly",
		mix: func(quick bool) []mixEntry {
			size := "medium"
			if quick {
				size = "small"
			}
			var mix []mixEntry
			for _, app := range apps.CatalogNames() {
				for _, p := range simProcs {
					mix = append(mix, mixEntry{job{App: app, Size: size, Procs: p}, 1})
				}
			}
			return mix
		},
		coldStarts: 1,
		// A simulator job builds its machine itself, so nothing is cold
		// but the serial reference runs every speedup is divided by.
		coldStart: func(jobs []job) error { _, err := newChecker(jobs); return err },
		open:      openSim,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// result is one workload's run.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error    // first failed job
	broken    []string // invariants that did not hold
	metrics   map[string]float64
	spans     string // where the traced pass wrote its spans
	selfNS    map[string]int64
}

func (r result) correct() bool { return r.failed == 0 && len(r.broken) == 0 }

// mustBeZero are invariants of a correct run, checked on both passes.
var mustBeZero = []string{"serve.rejected", "serve.lost", "serve.pool.rebuilds", "native.set_splits", "sim.count_drift"}

const (
	setupRepeats = 9
	minBlocks    = 4
)

// runWorkload measures one workload: set-up, then the untraced pass,
// then with o.trace the traced pass and the probes. Everything it
// starts is stopped before it returns, and a goroutine that outlives it
// is an error.
func runWorkload(ctx context.Context, w workload, o options) (result, error) {
	res := result{workload: w.name, metrics: make(map[string]float64)}
	baseline := runtime.NumGoroutine()
	procs := min(runtime.GOMAXPROCS(0), 4)
	mix := w.mix(o.quick)
	first := distinct(mix)

	chk, err := newChecker(first)
	if err != nil {
		return res, err
	}
	e := env{procs: procs, chk: chk}

	// account folds one pass's or cold start's job counts into the result.
	account := func(attempted, failed int, firstErr error) {
		res.attempted += attempted
		res.failed += failed
		if res.firstErr == nil {
			res.firstErr = firstErr
		}
	}
	// onePass opens a session, runs a pass on it and closes it, on every
	// path, before reading the layers the session gathered.
	onePass := func(tr *tracer, seconds float64) (pass, error) {
		e.tr = tr
		s, err := w.open(e)
		if err != nil {
			return pass{}, err
		}
		p, err := runPass(ctx, s, newStream(mix, o.seed), chk, seconds, o.minBlocks())
		s.close()
		account(p.attempted, p.failed, p.firstErr)
		if err != nil {
			return p, err
		}
		s.layers(res.metrics)
		for _, name := range mustBeZero {
			if v := res.metrics[name]; v != 0 {
				res.broken = append(res.broken, fmt.Sprintf("%s = %g, want 0", name, v))
			}
		}
		return p, waitGoroutines(baseline)
	}

	if !o.trace {
		coldStart := w.coldStart
		if coldStart == nil {
			coldStart = func(jobs []job) error {
				s, err := w.open(e)
				if err != nil {
					return err
				}
				rec := &recorder{chk: chk}
				s.runBlock(ctx, jobs, rec)
				s.close()
				account(rec.attempted, rec.failed, rec.firstErr)
				return ctx.Err()
			}
		}
		if res.metrics["setup_s"], err = setupSeconds(o.setupRepeats(), w.coldStarts, func() error { return coldStart(first) }); err != nil {
			return res, fmt.Errorf("cold start: %w", err)
		}
		if err := waitGoroutines(baseline); err != nil {
			return res, err
		}
		p, err := onePass(nil, o.seconds)
		if err != nil {
			return res, err
		}
		for k, v := range p.endToEnd() {
			res.metrics[k] = v
		}
		p.harness(res.metrics)
		return res, nil
	}

	// Traced run: a short untraced pass, the same sequences again under
	// the benchmark's decorators, then the direct probes.
	plain, err := onePass(nil, o.seconds/4)
	if err != nil {
		return res, err
	}
	plain.harness(res.metrics)
	tr := newTracer()
	traced, err := onePass(tr, o.seconds/4)
	if err != nil {
		return res, err
	}
	res.metrics["harness.trace_overhead_share"] = 1 - ratio(traced.endToEnd()["jobs_per_s"], plain.endToEnd()["jobs_per_s"])
	poolLayers(traced.snaps, res.metrics)
	sum := summarize(tr.spans)
	res.metrics["serve.accounted_share"] = sum.Accounted
	res.selfNS = sum.SelfNS
	if res.spans, err = tr.write(o.outDir, w.name); err != nil {
		return res, err
	}
	if err := runProbes(res.metrics, procs, first, o.quick); err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	return res, waitGoroutines(baseline)
}

// setupSeconds times repeats of coldStarts cold starts each and returns
// the best quartile, on the reference machine's clock.
func setupSeconds(repeats, coldStarts int, coldStart func() error) (float64, error) {
	var setups []float64
	var y yardstick
	y.sample()
	for range repeats {
		t0 := time.Now()
		for range coldStarts {
			if err := coldStart(); err != nil {
				return 0, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		y.sample()
	}
	slow, _ := y.slowness()
	return bestQuartile(setups, false) / slow, nil
}

func (o options) setupRepeats() int {
	if o.quick {
		return 1
	}
	return setupRepeats
}

func (o options) minBlocks() int {
	if o.quick {
		return 1
	}
	return minBlocks
}
