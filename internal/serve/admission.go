package serve

import (
	"fmt"
	"time"
)

// Admission decides whether a submission may enter the system at all —
// before routing, before queuing. Admit returns nil to admit or an
// error naming why the job was refused; it is called with the routing
// lock held, so implementations may keep unguarded state.
type Admission interface {
	Name() string
	Admit(job *Job, stats []EntryStat) error
}

// alwaysAdmit admits everything; queue capacity is the only backstop.
type alwaysAdmit struct{}

func (alwaysAdmit) Name() string                  { return "always" }
func (alwaysAdmit) Admit(*Job, []EntryStat) error { return nil }

// TokenBucket admits at a sustained rate with a burst allowance: a
// bucket of capacity Burst refills at Rate tokens per second and each
// admission spends one token. The clock is injectable so tests refill
// deterministically.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	lastNS int64
	now    func() int64 // UnixNano
}

// NewTokenBucket builds a full bucket. now may be nil for wall clock.
func NewTokenBucket(rate, burst float64, now func() int64) *TokenBucket {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, lastNS: now(), now: now}
}

func (t *TokenBucket) Name() string { return "token-bucket" }

func (t *TokenBucket) Admit(*Job, []EntryStat) error {
	n := t.now()
	t.tokens += float64(n-t.lastNS) / 1e9 * t.rate
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.lastNS = n
	if t.tokens < 1 {
		return fmt.Errorf("serve: rate limited (%.2f tokens, need 1)", t.tokens)
	}
	t.tokens--
	return nil
}

// rejectOverloaded sheds load at the door: a submission is refused
// when even the shallowest runtime queue is at or past maxDepth. This
// is queue-depth-aware admission, applied before a job ties up a queue
// slot it would only time out in.
type rejectOverloaded struct{ maxDepth int }

func (rejectOverloaded) Name() string { return "reject-overloaded" }

func (r rejectOverloaded) Admit(_ *Job, stats []EntryStat) error {
	min := -1
	for _, s := range stats {
		if d := s.Depth(); min < 0 || d < min {
			min = d
		}
	}
	if min >= r.maxDepth {
		return fmt.Errorf("serve: overloaded (shallowest queue depth %d >= %d)", min, r.maxDepth)
	}
	return nil
}

// AdmissionConfig parameterizes the admission factory.
type AdmissionConfig struct {
	Rate     float64 // token-bucket: sustained admissions per second
	Burst    float64 // token-bucket: bucket capacity
	MaxDepth int     // reject-overloaded: per-entry depth ceiling
	Now      func() int64
}

// AdmissionNames lists the policies NewAdmission accepts.
func AdmissionNames() []string {
	return []string{"always", "token-bucket", "reject-overloaded"}
}

// NewAdmission builds an admission policy by name.
func NewAdmission(name string, cfg AdmissionConfig) (Admission, error) {
	switch name {
	case "always":
		return alwaysAdmit{}, nil
	case "token-bucket":
		if cfg.Rate <= 0 || cfg.Burst < 1 {
			return nil, fmt.Errorf("serve: token-bucket needs rate > 0 and burst >= 1 (got rate=%g burst=%g)", cfg.Rate, cfg.Burst)
		}
		return NewTokenBucket(cfg.Rate, cfg.Burst, cfg.Now), nil
	case "reject-overloaded":
		if cfg.MaxDepth < 1 {
			return nil, fmt.Errorf("serve: reject-overloaded needs max depth >= 1 (got %d)", cfg.MaxDepth)
		}
		return rejectOverloaded{maxDepth: cfg.MaxDepth}, nil
	}
	return nil, fmt.Errorf("serve: unknown admission policy %q (have %v)", name, AdmissionNames())
}
