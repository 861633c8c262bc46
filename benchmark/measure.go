package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/coolrts/cool/internal/serve"
)

// session is one workload's warm state: the thing blocks run against.
type session interface {
	// runBlock executes jobs closed-loop with the workload's client
	// shape and records every outcome in rec. It returns once every job
	// it issued has been accounted for, or ctx is done.
	runBlock(ctx context.Context, jobs []job, rec *recorder)
	// layers adds the per-layer values the session gathered from the
	// program's own reports to m.
	layers(m map[string]float64)
	// close tears the session down: nothing it started survives it.
	close()
}

// recorder collects one block's outcomes.
type recorder struct {
	chk *checker

	mu        sync.Mutex
	latencyMS []float64
	attempted int
	failed    int
	firstErr  error
	snaps     []serve.Snapshot // traced pass only
}

// done records a finished job: verify is checked against the job's
// reference, and only then is the latency clock read, so latency is
// issue to verified result in hand. It returns the time verification
// ended.
func (r *recorder) done(j job, verify string, issued time.Time) time.Time {
	err := r.chk.check(j, verify)
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err)
		return end
	}
	r.latencyMS = append(r.latencyMS, float64(end.Sub(issued))/1e6)
	return end
}

// fail records a job that was rejected, failed, or timed out; it has
// no latency.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failLocked(err)
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) snapshot(s serve.Snapshot) {
	r.mu.Lock()
	r.snaps = append(r.snaps, s)
	r.mu.Unlock()
}

// runClients is the closed loop shared by the workloads whose clients
// keep one job outstanding: n goroutines take jobs in order from a
// shared cursor, and do runs one to completion.
func runClients(ctx context.Context, n int, jobs []job, do func(client int, j job)) {
	cur := cursor{jobs: jobs}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j, ok := cur.take(ctx)
				if !ok {
					return
				}
				do(c, j)
			}
		}(c)
	}
	wg.Wait()
}

// cursor hands a block's jobs out in order to whichever client asks
// next.
type cursor struct {
	mu   sync.Mutex
	jobs []job
	next int
}

// take returns the next job, or false when the block is issued or ctx
// is done.
func (c *cursor) take(ctx context.Context) (job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= len(c.jobs) || ctx.Err() != nil {
		return job{}, false
	}
	c.next++
	return c.jobs[c.next-1], true
}

// block is one measured fixed-work block, times as measured.
type block struct {
	jobs      int // verified
	elapsedS  float64
	cpuMS     float64
	latencyMS []float64
}

// pass is a sequence of measured blocks on one session.
type pass struct {
	blocks []block
	// slow and slowCPU are how slow the machine's wall clock and CPU
	// clock ran during the pass (see yardstick); the end-to-end metrics
	// divide them out.
	slow, slowCPU float64
	attempted     int
	failed        int
	firstErr      error
	allocBytes    uint64
	mallocs       uint64
	snaps         []serve.Snapshot
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF into a valid struct cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var errDeadline = errors.New("hard deadline reached before the run finished")

// runPass runs one unmeasured warm-up block, then measured blocks until
// seconds have elapsed and at least minBlocks have run.
func runPass(ctx context.Context, s session, st *stream, chk *checker, seconds float64, minBlocks int) (pass, error) {
	var p pass
	one := func(measured bool) error {
		jobs := st.block()
		rec := &recorder{chk: chk}
		cpu0, t0 := cpuTime(), time.Now()
		s.runBlock(ctx, jobs, rec)
		elapsed, cpu1 := time.Since(t0), cpuTime()
		p.attempted += rec.attempted
		p.failed += rec.failed
		if p.firstErr == nil {
			p.firstErr = rec.firstErr
		}
		if ctx.Err() != nil {
			return errDeadline
		}
		if rec.attempted != len(jobs) {
			return fmt.Errorf("block issued %d jobs, accounted for %d", len(jobs), rec.attempted)
		}
		if measured {
			p.blocks = append(p.blocks, block{
				jobs:      len(rec.latencyMS),
				elapsedS:  elapsed.Seconds(),
				cpuMS:     float64(cpu1-cpu0) / 1e6,
				latencyMS: rec.latencyMS,
			})
			p.snaps = append(p.snaps, rec.snaps...)
		}
		return nil
	}
	if err := one(false); err != nil {
		return p, err
	}
	// The yardstick runs between blocks, and the memory counters are
	// read around each block, so that its own allocation stays out.
	start := time.Now()
	var y yardstick
	y.sample()
	for len(p.blocks) < minBlocks || time.Since(start).Seconds() < seconds {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := one(true); err != nil {
			return p, err
		}
		runtime.ReadMemStats(&m1)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.mallocs += m1.Mallocs - m0.Mallocs
		y.sample()
	}
	p.slow, p.slowCPU = y.slowness()
	return p, nil
}

// verified is the number of jobs the measured blocks completed.
func (p pass) verified() int {
	n := 0
	for _, b := range p.blocks {
		n += b.jobs
	}
	return n
}

// perBlock maps every block through f.
func (p pass) perBlock(f func(block) float64) []float64 {
	out := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		out[i] = f(b)
	}
	return out
}

func blockRate(b block) float64 { return ratio(float64(b.jobs), b.elapsedS) }

// endToEnd computes the seven end-to-end metrics but setup_s from a
// pass: time-based ones per block, on the reference machine's clock,
// reported as the best quartile over blocks; allocation ones over the
// whole pass.
func (p pass) endToEnd() map[string]float64 {
	jobs := float64(p.verified())
	return map[string]float64{
		"jobs_per_s":       bestQuartile(p.perBlock(blockRate), true) * p.slow,
		"p50_ms":           bestQuartile(p.perBlock(func(b block) float64 { return percentile(b.latencyMS, 50) }), false) / p.slow,
		"p95_ms":           bestQuartile(p.perBlock(func(b block) float64 { return percentile(b.latencyMS, 95) }), false) / p.slow,
		"cpu_ms_per_job":   bestQuartile(p.perBlock(func(b block) float64 { return ratio(b.cpuMS, float64(b.jobs)) }), false) / p.slowCPU,
		"alloc_mb_per_job": ratio(float64(p.allocBytes)/(1<<20), jobs),
		"allocs_per_job":   ratio(float64(p.mallocs), jobs),
	}
}

// harness computes the whole-pass values as measured, printed beside
// the block estimates, how much the blocks disagreed, and how slow the
// machine ran.
func (p pass) harness(m map[string]float64) {
	var all []float64
	var elapsed float64
	for _, b := range p.blocks {
		all = append(all, b.latencyMS...)
		elapsed += b.elapsedS
	}
	m["harness.jobs_per_s_plain"] = ratio(float64(p.verified()), elapsed)
	m["harness.p50_ms_plain"] = percentile(all, 50)
	m["harness.p95_ms_plain"] = percentile(all, 95)
	m["harness.block_spread"] = spread(p.perBlock(blockRate))
	m["harness.machine_slowness"] = p.slow
	m["harness.machine_slowness_cpu"] = p.slowCPU
	m["harness.blocks"] = float64(len(p.blocks))
	m["harness.latency_samples"] = float64(len(all))
}

// waitGoroutines waits for the goroutine count to return to baseline
// and reports a leak, with every stack, if it does not.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}
