package serve

import "fmt"

// EntryStat is the live load signal one pool entry exposes to routing
// and admission decisions.
type EntryStat struct {
	ID         int   `json:"id"`
	Queued     int   `json:"queued"`      // jobs waiting in the entry's queue
	Running    int   `json:"running"`     // 0 or 1: the entry runs one job at a time
	Alive      int   `json:"alive"`       // live worker goroutines in the entry's runtime
	Completed  int64 `json:"completed"`   // jobs this entry finished (done or failed), stolen ones included
	Steals     int64 `json:"steals"`      // jobs this entry took from another entry's backlog
	Rebuilds   int64 `json:"rebuilds"`    // runtimes built anew because Reset refused (a failed run)
	PrepHits   int64 `json:"prep_hits"`   // jobs served from resident prepared state
	PrepMisses int64 `json:"prep_misses"` // keyed jobs that had to run the analyze phase
}

// Depth is the entry's total outstanding work.
func (s EntryStat) Depth() int { return s.Queued + s.Running }

// Router picks which pool entry a job is queued at. Pick is called
// with the routing lock held — implementations may keep unguarded
// state — and must return an index into stats (stats is never empty).
// Routing only places a job: balancing the queues is the pool's job,
// done late by idle entries stealing from a backlog (pool.go).
type Router interface {
	Name() string
	Pick(job *Job, stats []EntryStat) int
}

// leastLoaded places a job on the shallowest entry, ties to the lowest
// index. Entries whose runtime lost workers weigh their queue as if it
// were proportionally deeper, so a drained runtime attracts less work.
type leastLoaded struct{ fullAlive int }

func (l leastLoaded) Name() string { return "least-loaded" }

func (l leastLoaded) load(s EntryStat) float64 {
	depth := float64(s.Depth())
	if l.fullAlive > 0 && s.Alive > 0 && s.Alive < l.fullAlive {
		depth *= float64(l.fullAlive) / float64(s.Alive)
	}
	return depth
}

func (l leastLoaded) Pick(_ *Job, stats []EntryStat) int {
	best := 0
	for i := 1; i < len(stats); i++ {
		if l.load(stats[i]) < l.load(stats[best]) {
			best = i
		}
	}
	return best
}

// spaceAffinity gives every key a home entry and always places the
// key's jobs there: the paper's affinity at job granularity, where a
// task goes to its object's home server. A new key's home is the entry
// with the fewest homed keys, ties to the less loaded entry, then to
// the lower index; a home never moves. Keyless jobs go least-loaded.
type spaceAffinity struct {
	leastLoaded
	home  map[string]int // key -> home entry ID
	homed map[int]int    // entry ID -> keys homed there
}

func (a *spaceAffinity) Name() string { return "space-affinity" }

func (a *spaceAffinity) Pick(job *Job, stats []EntryStat) int {
	k := job.Req.Key
	if k == "" {
		return a.leastLoaded.Pick(job, stats)
	}
	if id, ok := a.home[k]; ok {
		for i, s := range stats {
			if s.ID == id {
				return i
			}
		}
	}
	best := 0
	for i := 1; i < len(stats); i++ {
		hi, hb := a.homed[stats[i].ID], a.homed[stats[best].ID]
		if hi < hb || hi == hb && a.load(stats[i]) < a.load(stats[best]) {
			best = i
		}
	}
	a.home[k] = stats[best].ID
	a.homed[stats[best].ID]++
	return best
}

// RouterNames lists the routing policies NewRouter accepts.
func RouterNames() []string {
	return []string{"least-loaded", "space-affinity"}
}

// NewRouter builds a routing policy by name. fullAlive is the worker
// count a healthy runtime has (used to discount entries whose runtimes
// lost workers); pass 0 to ignore the alive signal.
func NewRouter(name string, fullAlive int) (Router, error) {
	switch name {
	case "least-loaded":
		return leastLoaded{fullAlive: fullAlive}, nil
	case "space-affinity":
		return &spaceAffinity{leastLoaded: leastLoaded{fullAlive: fullAlive}, home: make(map[string]int), homed: make(map[int]int)}, nil
	}
	return nil, fmt.Errorf("serve: unknown routing policy %q (have %v)", name, RouterNames())
}
