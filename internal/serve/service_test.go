package serve

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// checkGoroutines fails the test if the goroutine count does not
// return to the pre-service baseline — the leak guard the drain path
// is designed to satisfy.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEndToEnd streams 240 real catalog jobs through 3 warm
// native runtimes and asserts exactly-once completion, per-job
// verification, and zero goroutine leaks after drain.
func TestServeEndToEnd(t *testing.T) {
	baseline := runtime.NumGoroutine()

	var mu sync.Mutex
	ran := make(map[string]int) // job ID -> runner invocations
	runner := func(rt *cool.Runtime, j *Job, res *Residency) (string, error) {
		mu.Lock()
		ran[j.ID]++
		mu.Unlock()
		return CatalogRunner(rt, j, res)
	}

	svc, err := NewService(Config{Runtimes: 3, Procs: 4, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}

	const n = 240
	apps := []string{"gauss", "ocean", "blockcho", "locusroute"}
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, err := svc.Submit(Request{
			App:  apps[i%len(apps)],
			Size: "small",
			Key:  fmt.Sprintf("tenant%d", i%6),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	for i, j := range jobs {
		if !j.Wait(60 * time.Second) {
			t.Fatalf("job %d (%s) never finished", i, j.ID)
		}
		snap := j.Snapshot()
		if snap.State != "done" {
			t.Fatalf("job %d: state %s, err %q", i, snap.State, snap.Error)
		}
		if snap.Verify == "" {
			t.Fatalf("job %d finished without verification evidence", i)
		}
		if snap.Runtime < 0 || snap.Runtime >= 3 {
			t.Fatalf("job %d ran on runtime %d", i, snap.Runtime)
		}
	}

	mu.Lock()
	for id, count := range ran {
		if count != 1 {
			t.Fatalf("job %s ran %d times, want exactly once", id, count)
		}
	}
	if len(ran) != n {
		t.Fatalf("%d distinct jobs ran, want %d", len(ran), n)
	}
	mu.Unlock()

	rep := svc.Report()
	var completed int64
	used := 0
	for _, e := range rep.Runtimes {
		completed += e.Completed
		if e.Completed > 0 {
			used++
		}
	}
	if completed != n {
		t.Fatalf("pool completed %d jobs, want %d", completed, n)
	}
	if used < 2 {
		t.Fatalf("only %d of 3 warm runtimes served jobs", used)
	}
	if rep.Submitted != n || rep.Rejected != 0 {
		t.Fatalf("report submitted=%d rejected=%d, want %d/0", rep.Submitted, rep.Rejected, n)
	}

	svc.Drain()
	if _, err := svc.Submit(Request{App: "gauss"}); err != ErrDraining {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	checkGoroutines(t, baseline)
}

// TestServeAffinityCrossesReset asserts router stickiness spans warm
// Resets: the second job with a key lands on the runtime that served
// the key's first job, even though that runtime was Reset in between.
func TestServeAffinityCrossesReset(t *testing.T) {
	svc, err := NewService(Config{Runtimes: 3, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	var home int
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(Request{App: "gauss", Size: "small", Key: "sticky"})
		if err != nil {
			t.Fatal(err)
		}
		if !j.Wait(30 * time.Second) {
			t.Fatalf("job %d stuck", i)
		}
		snap := j.Snapshot()
		if snap.State != "done" {
			t.Fatalf("job %d: %s (%s)", i, snap.State, snap.Error)
		}
		if i == 0 {
			home = snap.Runtime
		} else if snap.Runtime != home {
			t.Fatalf("job %d ran on runtime %d, want sticky home %d", i, snap.Runtime, home)
		}
	}
}

// TestServeRejectionIsQueryable asserts an admission-refused job is
// recorded, terminal, and visible by ID.
func TestServeRejectionIsQueryable(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := func(rt *cool.Runtime, j *Job, res *Residency) (string, error) {
		started <- struct{}{}
		<-release
		return "ok", nil
	}
	admit, err := NewAdmission("reject-overloaded", AdmissionConfig{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(Config{Runtimes: 1, Procs: 2, Runner: runner, Admission: admit})
	if err != nil {
		t.Fatal(err)
	}

	first, err := svc.Submit(Request{App: "gauss"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // first job is now running: every entry is at the ceiling
	second, err := svc.Submit(Request{App: "gauss"})
	if err == nil {
		t.Fatal("second submit admitted past the depth ceiling")
	}
	if second == nil {
		t.Fatal("rejected submit returned no job record")
	}
	if second.State() != JobRejected {
		t.Fatalf("rejected job state = %v", second.State())
	}
	got, ok := svc.Job(second.ID)
	if !ok || got.Snapshot().State != "rejected" {
		t.Fatalf("rejected job not queryable (ok=%v)", ok)
	}
	select {
	case <-second.Done():
	default:
		t.Fatal("rejected job is not terminal")
	}

	close(release)
	if !first.Wait(30 * time.Second) {
		t.Fatal("first job stuck")
	}
	svc.Drain()
}

// TestServeFailedJobRebuildsRuntime asserts a job whose run fails is
// reported failed, the entry rebuilds its runtime, and the next job on
// the same entry succeeds with clean counters.
func TestServeFailedJobRebuildsRuntime(t *testing.T) {
	boom := true
	runner := func(rt *cool.Runtime, j *Job, res *Residency) (string, error) {
		if boom {
			boom = false
			return "", rt.Run(func(c *cool.Ctx) { panic("injected") })
		}
		return CatalogRunner(rt, j, res)
	}
	svc, err := NewService(Config{Runtimes: 1, Procs: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	bad, _ := svc.Submit(Request{App: "gauss", Size: "small"})
	good, _ := svc.Submit(Request{App: "gauss", Size: "small"})
	if !bad.Wait(30*time.Second) || !good.Wait(30*time.Second) {
		t.Fatal("jobs stuck")
	}
	if bad.State() != JobFailed {
		t.Fatalf("panicking job state = %v, want failed", bad.State())
	}
	if snap := good.Snapshot(); snap.State != "done" || snap.Verify == "" {
		t.Fatalf("follow-up job on rebuilt runtime: %+v", snap)
	}
	st := svc.Report().Runtimes[0]
	if st.Completed != 2 {
		t.Fatalf("entry completed %d jobs, want 2", st.Completed)
	}
	if st.Rebuilds != 1 {
		t.Fatalf("entry rebuilt its runtime %d times, want 1", st.Rebuilds)
	}
}

// waitIdle blocks until entry i's loop is parked with nothing to take.
func waitIdle(t *testing.T, p *pool, i int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		idle := p.entries[i].idle
		p.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry %d never went idle", i)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeIdleEntryStealsNewest drives the steal rule with a runner
// that blocks: an idle entry leaves a home queue of one alone, takes
// the newest job once two wait, runs it on its own runtime, and probes
// its own residency through a view that stores nothing.
func TestServeIdleEntryStealsNewest(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	runner := func(_ *cool.Runtime, j *Job, res *Residency) (string, error) {
		if _, ok := res.Lookup(j); !ok {
			res.Store(j, j.ID)
		}
		started <- j.ID
		<-release
		return "ok", nil
	}
	svc, err := NewService(Config{Runtimes: 2, Procs: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()
	p := svc.pool
	waitIdle(t, p, 0)
	waitIdle(t, p, 1)

	submit := func() *Job {
		t.Helper()
		j, err := svc.Submit(Request{App: "x", Key: "a"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	first := submit() // homes key a at entry 0 and runs there
	if id := <-started; id != first.ID {
		t.Fatalf("started %s, want %s", id, first.ID)
	}

	// One job queued at home: entry 1 is not even woken.
	second := submit()
	time.Sleep(20 * time.Millisecond)
	waitIdle(t, p, 1)
	if sn := second.Snapshot(); sn.State != "queued" || sn.Runtime != 0 {
		t.Fatalf("second job %s on %d, want queued at home 0", sn.State, sn.Runtime)
	}

	// Two queued: entry 1 steals the newest.
	third := submit()
	if id := <-started; id != third.ID {
		t.Fatalf("entry 1 stole %s, want the newest %s", id, third.ID)
	}
	if sn := third.Snapshot(); sn.State != "running" || sn.Runtime != 1 {
		t.Fatalf("stolen job %s on %d, want running on the thief 1", sn.State, sn.Runtime)
	}
	if sn := second.Snapshot(); sn.State != "queued" || sn.Runtime != 0 {
		t.Fatalf("second job %s on %d, want still queued at home 0", sn.State, sn.Runtime)
	}
	rep := svc.Report().Runtimes
	if rep[0].Steals != 0 || rep[1].Steals != 1 {
		t.Fatalf("steals %d/%d, want 0/1", rep[0].Steals, rep[1].Steals)
	}
	// The thief counted the probe and stored nothing.
	if rep[1].PrepHits != 0 || rep[1].PrepMisses != 1 {
		t.Fatalf("thief hits=%d misses=%d, want 0/1", rep[1].PrepHits, rep[1].PrepMisses)
	}
	if n := len(p.entries[1].res.items); n != 0 {
		t.Fatalf("thief holds %d resident spaces, want 0", n)
	}

	close(release)
	for _, j := range []*Job{first, second, third} {
		if !j.Wait(10 * time.Second) {
			t.Fatalf("%s stuck", j.ID)
		}
	}
	// Back home, the second job hits the state the first one stored.
	rep = svc.Report().Runtimes
	if rep[0].Completed != 2 || rep[1].Completed != 1 {
		t.Fatalf("completed %d/%d, want 2/1", rep[0].Completed, rep[1].Completed)
	}
	if rep[0].PrepHits != 1 || rep[0].PrepMisses != 1 {
		t.Fatalf("home hits=%d misses=%d, want 1/1", rep[0].PrepHits, rep[0].PrepMisses)
	}
	if sn := second.Snapshot(); sn.Runtime != 0 {
		t.Fatalf("second job ran on %d, want home 0", sn.Runtime)
	}
}

// TestServeStealsRunEachJobOnce races submitters with random keys and
// a Drain against three entries that steal from each other: every
// admitted job is invoked once and finishes once, every refused one
// was refused for draining, and no goroutine survives the drain.
func TestServeStealsRunEachJobOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var mu sync.Mutex
	ran := make(map[string]int)
	runner := func(_ *cool.Runtime, j *Job, res *Residency) (string, error) {
		if _, ok := res.Lookup(j); !ok {
			res.Store(j, j.ID)
		}
		mu.Lock()
		ran[j.ID]++
		mu.Unlock()
		if len(j.ID)%3 == 0 {
			runtime.Gosched()
		}
		return "ok", nil
	}
	svc, err := NewService(Config{Runtimes: 3, Procs: 1, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}

	const submitters, perSubmitter = 4, 600
	var wg sync.WaitGroup
	admitted := make([][]*Job, submitters)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 1))
			for i := 0; i < perSubmitter; i++ {
				j, err := svc.Submit(Request{App: "x", Key: fmt.Sprintf("k%d", rng.IntN(12))})
				if err == ErrDraining {
					return
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				admitted[s] = append(admitted[s], j)
			}
		}(s)
	}
	go func() {
		for svc.Report().Submitted < 2000 {
			runtime.Gosched()
		}
		svc.Drain()
	}()
	wg.Wait()
	svc.Drain()

	n := 0
	for _, list := range admitted {
		for _, j := range list {
			n++
			select {
			case <-j.Done():
			default:
				t.Fatalf("%s not terminal after Drain", j.ID)
			}
			if sn := j.Snapshot(); sn.State != "done" || sn.Runtime < 0 || sn.Runtime > 2 {
				t.Fatalf("%s: state %s on %d", j.ID, sn.State, sn.Runtime)
			}
		}
	}
	if n < 2000 {
		t.Fatalf("%d jobs admitted before the drain, want >= 2000", n)
	}
	mu.Lock()
	if len(ran) != n {
		t.Fatalf("%d distinct jobs ran, want %d", len(ran), n)
	}
	for id, c := range ran {
		if c != 1 {
			t.Fatalf("job %s ran %d times, want once", id, c)
		}
	}
	mu.Unlock()
	var completed, steals int64
	for _, e := range svc.Report().Runtimes {
		completed += e.Completed
		steals += e.Steals
	}
	t.Logf("%d jobs, %d stolen", n, steals)
	if completed != int64(n) {
		t.Fatalf("pool completed %d, want %d", completed, n)
	}
	checkGoroutines(t, baseline)
}
