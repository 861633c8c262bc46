package serve

import "fmt"

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
	MaxDepth int // reject-overloaded: per-entry depth ceiling
}

// AdmissionNames lists the policies NewAdmission accepts.
func AdmissionNames() []string {
	return []string{"always", "reject-overloaded"}
}

// NewAdmission builds an admission policy by name.
func NewAdmission(name string, cfg AdmissionConfig) (Admission, error) {
	switch name {
	case "always":
		return alwaysAdmit{}, nil
	case "reject-overloaded":
		if cfg.MaxDepth < 1 {
			return nil, fmt.Errorf("serve: reject-overloaded needs max depth >= 1 (got %d)", cfg.MaxDepth)
		}
		return rejectOverloaded{maxDepth: cfg.MaxDepth}, nil
	}
	return nil, fmt.Errorf("serve: unknown admission policy %q (have %v)", name, AdmissionNames())
}
