// Package serve is the multi-tenant serving layer over warm COOL
// runtimes. It keeps a pool of runtimes hot across jobs (NewRuntime
// once, Runtime.Reset between jobs), places each submitted job at a
// runtime through a routing policy — least-loaded, or space affinity,
// which gives each object space a home runtime and queues the space's
// jobs there, the paper's task-to-processor affinity lifted one level
// up — and lets an idle runtime steal from another's backlog, as the
// paper's idle servers do. Admission control runs before any work is
// queued, and is the only place load is shed: an admitted job runs
// every task it spawns, since a catalog app with a dropped task fails
// its Verify. The HTTP front end in server.go is a thin wrapper; the
// in-process Service is the real API and what the tests and benches
// drive.
package serve

import (
	"sync"
	"time"
)

// JobState is a job's position in its lifecycle.
type JobState int32

const (
	// JobQueued: admitted and waiting in a runtime's queue.
	JobQueued JobState = iota
	// JobRunning: executing on its runtime.
	JobRunning
	// JobDone: completed successfully.
	JobDone
	// JobFailed: the app run returned an error.
	JobFailed
	// JobRejected: refused by admission control; never queued.
	JobRejected
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobRejected:
		return "rejected"
	}
	return "unknown"
}

// Request is one job submission. It carries no per-job priority or
// deadline; the HTTP front end rejects a body naming any field not
// listed here.
type Request struct {
	// App names a catalog entry (see internal/apps.CatalogNames).
	App string `json:"app"`
	// Size is a catalog preset: "small" (default), "medium", "large".
	Size string `json:"size,omitempty"`
	// Key is the affinity key: jobs sharing a key touch the same object
	// space, and the space-affinity router queues them all at the key's
	// home runtime. Empty means no affinity.
	Key string `json:"key,omitempty"`
}

// Job is one admitted (or rejected) submission and its outcome.
type Job struct {
	ID  string
	Req Request

	mu       sync.Mutex
	state    JobState
	runtime  int // entry it is queued at, then the entry that ran it; -1 until routed
	verify   string
	errMsg   string
	submitNS int64 // wall clock, UnixNano
	startNS  int64
	doneNS   int64

	done chan struct{} // closed exactly once on done/failed/rejected
}

func newJob(id string, req Request, now int64) *Job {
	return &Job{ID: id, Req: req, runtime: -1, submitNS: now, done: make(chan struct{})}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or the timeout elapses, and
// reports whether it became terminal.
func (j *Job) Wait(timeout time.Duration) bool {
	select {
	case <-j.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (j *Job) route(entry int) {
	j.mu.Lock()
	j.runtime = entry
	j.mu.Unlock()
}

func (j *Job) start(entry int, now int64) {
	j.mu.Lock()
	j.state = JobRunning
	j.runtime = entry
	j.startNS = now
	j.mu.Unlock()
}

// finish moves the job to a terminal state; calling it twice panics by
// closing done again, which is exactly the bug it exists to surface.
func (j *Job) finish(state JobState, verify, errMsg string, now int64) {
	j.mu.Lock()
	j.state = state
	j.verify = verify
	j.errMsg = errMsg
	j.doneNS = now
	j.mu.Unlock()
	close(j.done)
}

// Snapshot is a job's externally visible state, JSON-ready.
type Snapshot struct {
	ID       string   `json:"id"`
	App      string   `json:"app"`
	Size     string   `json:"size,omitempty"`
	Key      string   `json:"key,omitempty"`
	State    string   `json:"state"`
	Runtime  int      `json:"runtime"` // -1 until routed; the entry that ran it once started
	Verify   string   `json:"verify,omitempty"`
	Error    string   `json:"error,omitempty"`
	SubmitNS int64    `json:"submit_ns"`
	StartNS  int64    `json:"start_ns,omitempty"`
	DoneNS   int64    `json:"done_ns,omitempty"`
	state    JobState // internal typed copy
}

// Snapshot returns a consistent copy of the job's state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID:       j.ID,
		App:      j.Req.App,
		Size:     j.Req.Size,
		Key:      j.Req.Key,
		State:    j.state.String(),
		Runtime:  j.runtime,
		Verify:   j.verify,
		Error:    j.errMsg,
		SubmitNS: j.submitNS,
		StartNS:  j.startNS,
		DoneNS:   j.doneNS,
		state:    j.state,
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
