package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// Config parameterizes a Service.
type Config struct {
	// Runtimes is the number of warm runtimes in the pool (default 2).
	Runtimes int
	// Procs is each runtime's processor count (default 4).
	Procs int
	// Router is the routing policy (default space-affinity).
	Router Router
	// Admission is the admission policy (default always).
	Admission Admission
	// Runner executes one job (default CatalogRunner).
	Runner Runner
	// ResidentSpaces is each runtime's residency-cache capacity: how
	// many spaces' prepared state one runtime keeps resident (default
	// 4; negative disables residency). Scarcity is the point — see
	// Residency.
	ResidentSpaces int
	// Now is the wall clock, injectable for tests.
	Now func() int64
}

// retainedJobs is how many finished, failed or rejected jobs a Service
// keeps queryable. Past it, each job that ends evicts the job that ended
// longest ago, and Job (GET /jobs/{id}) no longer finds that one. Queued
// and running jobs are never evicted; the queues bound them.
const retainedJobs = 4096

// ErrDraining is returned by Submit once a drain has begun.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// Service is the in-process serving API: submit jobs, query them,
// report pool state, drain. The HTTP server wraps it.
type Service struct {
	pool   *pool
	router Router
	admit  Admission
	now    func() int64

	mu       sync.Mutex // serializes routing + admission + job table
	jobs     map[string]*Job
	seq      int64
	draining bool

	// retired holds the IDs of the jobs that reached a terminal state,
	// a ring of at most retainedJobs; next is its oldest once it is
	// full. A job that leaves the ring leaves jobs too.
	retired []string
	next    int

	submitted atomic.Int64
	rejected  atomic.Int64

	drainOnce sync.Once
}

// NewService builds the pool (cold NewRuntime per entry — the last
// cold builds this service ever does) and starts its entry loops.
func NewService(cfg Config) (*Service, error) {
	if cfg.Runtimes <= 0 {
		cfg.Runtimes = 2
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	// Serving wants wall-clock work: every runtime is native.
	rtCfg := cool.Config{Processors: cfg.Procs, Backend: cool.BackendNative}
	if cfg.Router == nil {
		r, err := NewRouter("space-affinity", cfg.Procs)
		if err != nil {
			return nil, err
		}
		cfg.Router = r
	}
	if cfg.Admission == nil {
		cfg.Admission = alwaysAdmit{}
	}
	if cfg.Runner == nil {
		cfg.Runner = CatalogRunner
	}
	if cfg.Now == nil {
		cfg.Now = wallNow
	}
	if cfg.ResidentSpaces == 0 {
		cfg.ResidentSpaces = 4
	} else if cfg.ResidentSpaces < 0 {
		cfg.ResidentSpaces = 0
	}
	s := &Service{
		router: cfg.Router,
		admit:  cfg.Admission,
		now:    cfg.Now,
		jobs:   make(map[string]*Job),
	}
	p, err := newPool(cfg.Runtimes, rtCfg, cfg.Runner, cfg.ResidentSpaces, cfg.Now, s.retire)
	if err != nil {
		return nil, err
	}
	s.pool = p
	return s, nil
}

// retire records that job reached a terminal state (see retainedJobs).
func (s *Service) retire(job *Job) {
	s.mu.Lock()
	s.retireLocked(job)
	s.mu.Unlock()
}

func (s *Service) retireLocked(job *Job) {
	if len(s.retired) < retainedJobs {
		s.retired = append(s.retired, job.ID)
		return
	}
	delete(s.jobs, s.retired[s.next])
	s.retired[s.next] = job.ID
	s.next = (s.next + 1) % retainedJobs
}

// reject finishes job as rejected with err. Caller holds s.mu.
func (s *Service) reject(job *Job, err error) {
	s.rejected.Add(1)
	job.finish(JobRejected, "", err.Error(), s.now())
	s.retireLocked(job)
}

// Submit validates, admits, routes, and enqueues one job. The returned
// Job is live — watch Done() or poll State(). A non-nil error means
// the job was not queued; if the Job is also non-nil it is recorded in
// rejected state and remains queryable by ID.
func (s *Service) Submit(req Request) (*Job, error) {
	if req.App == "" {
		return nil, errors.New("serve: submission needs an app")
	}
	if _, ok := apps.CatalogLookup(req.App); ok {
		if _, err := apps.CatalogSize(req.App, req.Size); err != nil {
			return nil, err
		}
	}
	// Unknown apps are allowed through here so tests can use synthetic
	// runners; CatalogRunner fails them cleanly at run time.

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	s.seq++
	job := newJob(fmt.Sprintf("job-%d", s.seq), req, s.now())
	s.jobs[job.ID] = job
	s.submitted.Add(1)

	stats := s.pool.stats()
	if err := s.admit.Admit(job, stats); err != nil {
		s.reject(job, err)
		return job, err
	}
	idx := s.router.Pick(job, stats)
	if idx < 0 || idx >= len(s.pool.entries) {
		err := fmt.Errorf("serve: router %s picked entry %d of %d", s.router.Name(), idx, len(s.pool.entries))
		s.reject(job, err)
		return job, err
	}
	e := s.pool.entries[idx]
	job.route(e.id)
	if !s.pool.push(e, job) {
		err := fmt.Errorf("serve: runtime %d queue full (%d jobs)", e.id, queueCap)
		s.reject(job, err)
		return job, err
	}
	return job, nil
}

// Job looks a job up by ID. A job that ended more than retainedJobs
// endings ago is no longer found.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Report is the service-wide state summary.
type Report struct {
	Router    string      `json:"router"`
	Admission string      `json:"admission"`
	Draining  bool        `json:"draining"`
	Submitted int64       `json:"submitted"`
	Rejected  int64       `json:"rejected"`
	Runtimes  []EntryStat `json:"runtimes"`
}

// Report snapshots pool and admission state.
func (s *Service) Report() Report {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Report{
		Router:    s.router.Name(),
		Admission: s.admit.Name(),
		Draining:  draining,
		Submitted: s.submitted.Load(),
		Rejected:  s.rejected.Load(),
		Runtimes:  s.pool.stats(),
	}
}

// Drain stops admissions, lets every queued job finish, and joins all
// pool goroutines. It is idempotent and returns only when the pool is
// fully quiescent — no goroutine this service started survives it.
func (s *Service) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.pool.close() // safe: every push holds s.mu and checks draining first
		s.mu.Unlock()
		s.pool.wg.Wait()
	})
}
