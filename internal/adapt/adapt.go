// Package adapt is the online scheduling-policy controller: a small,
// dependency-free decision engine that turns per-epoch counter deltas
// into the one run-time scheduling choice the paper has — whether
// stealing is restricted to the thief's own cluster.
//
// The controller is deliberately pure: the deterministic simulator feeds
// it cumulative counter snapshots at fixed simulated-cycle epoch
// boundaries and applies the returned state to its scheduler. Purity is
// what keeps the sim runs bit-stable and lets the hysteresis rules be
// unit-tested with scripted counter streams.
//
// Three rules move the knob, each on a crisp counter signature: a
// probe-fail storm turns the restriction on, so does the locality
// regime — cross-cluster steals "succeed" but the stolen tasks pay a
// non-local miss rate far above what home-placed work pays, visible
// where the backend attributes memory references to stolen work — and
// starvation under the restriction turns it back off.
//
// Every state change is recorded as a BLIS-style decision trace entry:
// the knob, the action taken, the triggering counter delta, a score,
// and the scored alternative that was NOT taken. Replay folds a trace
// over the initial state and must land exactly on the controller's
// final state — the reconstruction property TestAdaptiveFloor asserts
// for every adaptive run.
package adapt

import "fmt"

// KnobCluster is the knob name in Decision entries: cluster-only
// stealing on/off.
const KnobCluster = "cluster"

// Rule bounds with one value in use everywhere.
const (
	minTriesPerEpoch = 8    // below this many probes a fail ratio is noise
	stealFailHigh    = 0.75 // FailedSteals/StealTries above which cross-cluster stealing is judged not to pay

	// Locality-rule guards: below these accumulated volumes a stolen-work
	// miss rate is statistical noise, and a rate below the floor is not
	// worth a restriction even when it is relatively elevated. The
	// accumulators span every flat epoch since the knob last moved, so a
	// bursty stealer still reaches the volume bar within a few epochs.
	minLocSteals    = 2    // accumulated remote steals for the signal to count
	minStolenRefs   = 64   // accumulated stolen references for the rate to be real
	stolenRateFloor = 0.02 // absolute stolen-miss rate below which locality is fine
)

// Policy configures the online policy controller (Config.Adapt). The
// zero value selects the defaults for everything. Only Epoch and Start
// are settable from outside this package; hysteresis and traceCap are
// fields only so that this package's tests can script them.
type Policy struct {
	// Epoch is the controller interval in simulated cycles (default
	// 50_000). The controller itself never reads it — the simulator's
	// epoch driver does.
	Epoch int64
	// hysteresis is how many consecutive epochs a signal must persist
	// before the controller acts on it (default 2).
	hysteresis int
	// traceCap bounds the decision trace (default 256); decisions past
	// the cap are applied but not recorded, and counted in Dropped.
	traceCap int
	// Start, when non-nil, warm-starts the run: the controller and the
	// live scheduler begin from this previously learned policy instead
	// of the configuration's default. Harvest it with Runtime.AdaptState
	// at the end of one run and pass it to the next — repeated runs of
	// the same workload then skip the cold observation epochs.
	Start *State
}

func (p Policy) withDefaults() Policy {
	if p.hysteresis <= 0 {
		p.hysteresis = 2
	}
	if p.traceCap <= 0 {
		p.traceCap = 256
	}
	return p
}

// Snapshot is one cumulative counter reading (public as
// cool.CounterSnapshot). The steal/wake/shed fields are monotone
// counters since the start of the run; Queued, Parked and Workers are
// instantaneous gauges sampled at the same moment. Delta subtracts the
// counters and keeps the gauges.
type Snapshot struct {
	StealTries     int64
	FailedSteals   int64
	StealsLocal    int64
	StealsRemote   int64
	SetSteals      int64
	TargetedWakes  int64
	BroadcastWakes int64
	LockContention int64
	TasksShed      int64
	DeadlineMisses int64
	Completed      int64 // tasks executed (or shed) to completion

	// Memory-system attribution (simulator backend; zero natively).
	// Refs/RemoteMisses cover all work, StolenRefs/StolenMisses only
	// references made while running a task most recently moved by a
	// cross-cluster steal. Their ratio is the locality rule's signal.
	Refs         int64
	RemoteMisses int64 // non-local misses (remote + dirty)
	StolenRefs   int64
	StolenMisses int64

	Queued  int64 // gauge: tasks queued machine-wide right now
	Parked  int64 // gauge: workers idle-parked right now
	Workers int64 // gauge: alive workers right now

	// Backlog-concentration gauges: how many clusters hold queued work,
	// out of how many exist. A deep backlog pinned in a minority of
	// clusters argues for cross-cluster stealing, so the locality rule
	// stands down while that is the live shape.
	QueuedClusters int64
	Clusters       int64
}

// Delta returns s minus prev on the monotone counters, keeping s's
// instantaneous gauges — the epoch-delta view the controller consumes.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		StealTries:     s.StealTries - prev.StealTries,
		FailedSteals:   s.FailedSteals - prev.FailedSteals,
		StealsLocal:    s.StealsLocal - prev.StealsLocal,
		StealsRemote:   s.StealsRemote - prev.StealsRemote,
		SetSteals:      s.SetSteals - prev.SetSteals,
		TargetedWakes:  s.TargetedWakes - prev.TargetedWakes,
		BroadcastWakes: s.BroadcastWakes - prev.BroadcastWakes,
		LockContention: s.LockContention - prev.LockContention,
		TasksShed:      s.TasksShed - prev.TasksShed,
		DeadlineMisses: s.DeadlineMisses - prev.DeadlineMisses,
		Completed:      s.Completed - prev.Completed,
		Refs:           s.Refs - prev.Refs,
		RemoteMisses:   s.RemoteMisses - prev.RemoteMisses,
		StolenRefs:     s.StolenRefs - prev.StolenRefs,
		StolenMisses:   s.StolenMisses - prev.StolenMisses,
		Queued:         s.Queued,
		Parked:         s.Parked,
		Workers:        s.Workers,
		QueuedClusters: s.QueuedClusters,
		Clusters:       s.Clusters,
	}
}

// State is the live policy the controller drives.
type State struct {
	ClusterOnly bool
}

// Alternative is one counterfactual the controller scored but did not
// choose.
type Alternative struct {
	Action string
	Score  float64
}

// Decision is one recorded policy change. From/To are the knob's value
// before and after (booleans encoded 0/1), which is what makes Replay
// a pure fold.
type Decision struct {
	Seq          int    // ordinal within the trace
	Epoch        int64  // controller epoch ordinal at which it was taken
	Time         int64  // simulated cycle at which it was taken
	Knob         string // KnobCluster
	Action       string
	From, To     int64
	Reason       string        // triggering counters, human-readable
	Score        float64       // signal strength behind the chosen action
	Alternatives []Alternative // counterfactuals not taken, best first
	Delta        Snapshot      // the epoch's counter delta that triggered it
}

// Controller holds the hysteresis state machine. Not safe for
// concurrent use: the sim event loop alone calls Epoch; readers use
// Decisions after the run.
type Controller struct {
	pol     Policy
	st      State
	initSt  State
	prev    Snapshot
	epochN  int64
	trace   []Decision
	dropped int64

	// Consecutive-epoch signal streaks.
	clusterOn, clusterOff int

	// onByLocality records whether the current cluster-only restriction
	// was imposed by the locality rule (measured miss rates) rather than
	// the fail-ratio rule; the starvation OFF rule then needs a longer
	// streak to overrule it.
	onByLocality bool

	// Locality accumulators: stolen-work and all-work reference/miss
	// totals summed over every active flat (unrestricted) epoch since
	// the cluster knob last moved, plus the count of those epochs.
	// Accumulation is what lets a bursty stealer clear the volume
	// guards — single epochs are too noisy — while the epoch count
	// turns the steal guard into a rate floor.
	locSteals, locStolenRefs, locStolenMisses int64
	locRefs, locMisses, locEpochs             int64
}

// New creates a controller starting from init (the runtime's
// configured policy).
func New(pol Policy, init State) *Controller {
	return &Controller{pol: pol.withDefaults(), st: init, initSt: init}
}

// State returns the current policy.
func (c *Controller) State() State { return c.st }

// Init returns the policy the controller started from — the
// seed for Replay. It reflects the runtime's effective configured
// policy at arm time, which variant-level scheduling overrides make
// different from what the base configuration alone would predict.
func (c *Controller) Init() State { return c.initSt }

// Epochs returns how many epochs have been consumed.
func (c *Controller) Epochs() int64 { return c.epochN }

// Dropped returns the number of decisions not recorded because the
// trace hit traceCap.
func (c *Controller) Dropped() int64 { return c.dropped }

// Count returns the number of recorded decisions.
func (c *Controller) Count() int { return len(c.trace) }

// DecisionAt returns recorded decision i without copying the trace.
func (c *Controller) DecisionAt(i int) Decision { return c.trace[i] }

// Decisions returns a copy of the decision trace (nil when empty).
func (c *Controller) Decisions() []Decision {
	return append([]Decision(nil), c.trace...)
}

// Epoch consumes one cumulative snapshot taken at backend time now and
// returns the (possibly updated) policy plus whether it changed this
// epoch.
func (c *Controller) Epoch(now int64, cum Snapshot) (State, bool) {
	d := cum.Delta(c.prev)
	c.prev = cum
	c.epochN++
	changed := c.clusterRules(now, d)
	return c.st, changed
}

// ratio is n/d with 0/0 == 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// clusterRules flips cluster-only stealing ON when steal probes keep
// failing while cross-cluster steals contribute nothing — the paper's
// "distant cache misses for nothing" regime — and back OFF on the one
// signal still observable under the restriction: starvation, i.e. a
// machine-wide backlog the restricted thieves cannot reach while a
// large share of the pool sits parked.
func (c *Controller) clusterRules(now int64, d Snapshot) bool {
	tries := d.StealTries
	fail := ratio(d.FailedSteals, tries)
	if !c.st.ClusterOnly {
		// Remote steals still paying vetoes the fail-ratio flip
		// regardless of the overall ratio: a 5% remote success rate is
		// real work. The probe volume must also scale with the pool — a
		// couple of failed probes per worker is an idle lull, not the
		// machine-wide probe storm the restriction exists for.
		remotePaying := d.StealsRemote*20 > tries
		failSignal := tries >= minTriesPerEpoch && tries >= 4*d.Workers &&
			fail >= stealFailHigh && !remotePaying

		// Locality signal: work moved by cross-cluster steals pays at
		// least double the non-local miss rate of home-placed work — the
		// steals succeed but drag distant misses behind them. Measured
		// on totals accumulated since the knob last moved, so a bursty
		// stealer still clears the volume guards quickly; the steal
		// guard doubles as a rate floor (half a steal per active epoch,
		// sustained), so a steal trickle over a long run never creeps
		// past it — restricting a whole machine for a handful of lossy
		// steals would trade real load balance for noise. Stands down
		// while a deep backlog sits in a minority of clusters: that
		// shape needs cross-cluster stealing to drain at all.
		c.locSteals += d.StealsRemote
		c.locStolenRefs += d.StolenRefs
		c.locStolenMisses += d.StolenMisses
		c.locRefs += d.Refs
		c.locMisses += d.RemoteMisses
		if d.Completed > 0 {
			c.locEpochs++
		}
		stolenRate := ratio(c.locStolenMisses, c.locStolenRefs)
		homeRate := ratio(c.locMisses-c.locStolenMisses, c.locRefs-c.locStolenRefs)
		concentrated := d.Queued > d.Workers && d.QueuedClusters*2 <= d.Clusters
		locSignal := c.locSteals >= minLocSteals &&
			c.locSteals*2 >= c.locEpochs &&
			c.locStolenRefs >= minStolenRefs &&
			stolenRate >= 2*homeRate &&
			stolenRate >= stolenRateFloor &&
			!concentrated

		if failSignal || locSignal {
			c.clusterOn++
		} else {
			c.clusterOn = 0
		}
		// Overwhelming locality evidence — quadruple the home miss rate
		// over double the usual steal and reference volume — skips the
		// hysteresis streak: every flat epoch spent waiting lets
		// remotely-stolen tasks seed whole subtrees of wrong-cluster
		// work.
		strong := locSignal && stolenRate >= 4*homeRate &&
			c.locSteals >= 2*minLocSteals &&
			c.locStolenRefs >= 2*minStolenRefs
		if c.clusterOn < c.pol.hysteresis && !strong {
			return false
		}
		epochs := c.clusterOn
		c.clusterOn = 0
		c.st.ClusterOnly = true
		c.onByLocality = !failSignal
		dec := Decision{
			Time: now, Knob: KnobCluster, Action: "cluster-only on",
			From: 0, To: 1,
			Delta: d,
		}
		if failSignal {
			dec.Reason = fmt.Sprintf("probe fail ratio %.2f >= %.2f over %d tries (%d remote successes) for %d epochs",
				fail, stealFailHigh, tries, d.StealsRemote, epochs)
			dec.Score = fail
			dec.Alternatives = []Alternative{
				{Action: "keep flat stealing", Score: 1 - fail},
			}
		} else {
			dec.Reason = fmt.Sprintf("stolen-work miss rate %.3f >= 2x home rate %.3f over %d stolen refs (%d remote steals) for %d epochs",
				stolenRate, homeRate, c.locStolenRefs, c.locSteals, epochs)
			dec.Score = ratio(int64(stolenRate*1000), int64(homeRate*1000)+1)
			dec.Alternatives = []Alternative{
				{Action: "keep flat stealing", Score: 1},
			}
		}
		c.record(dec)
		c.resetLocality()
		return true
	}
	// The bar is deliberately high on every axis — backlog at twice the
	// pool, half the pool parked, and (where the backend reports the
	// gauge) the backlog concentrated in at most half the clusters. A
	// backlog spread across most clusters is reachable by the restricted
	// thieves; workers parked next to it are parked on backoff timing,
	// not the restriction, and flipping off a winning restriction for
	// that costs far more than the idle cycles it recovers.
	reachable := d.Clusters > 0 && d.QueuedClusters*2 > d.Clusters
	starving := d.Queued > 2*d.Workers && d.Parked*2 >= d.Workers && d.Parked > 0 && !reachable
	if starving {
		c.clusterOff++
	} else {
		c.clusterOff = 0
	}
	// The starvation shape heuristic argues with measured miss rates when
	// the restriction came from the locality rule; demand a streak twice
	// as long before overruling quantitative evidence.
	need := c.pol.hysteresis
	if c.onByLocality {
		need *= 2
	}
	if c.clusterOff < need {
		return false
	}
	c.clusterOff = 0
	c.st.ClusterOnly = false
	c.onByLocality = false
	c.resetLocality()
	score := ratio(d.Queued, d.Workers)
	c.record(Decision{
		Time: now, Knob: KnobCluster, Action: "cluster-only off",
		From: 1, To: 0,
		Reason: fmt.Sprintf("starvation: %d queued > %d workers with %d parked for %d epochs",
			d.Queued, d.Workers, d.Parked, c.pol.hysteresis),
		Score: score,
		Alternatives: []Alternative{
			{Action: "stay cluster-only", Score: 1 / (1 + score)},
		},
		Delta: d,
	})
	return true
}

// resetLocality clears the locality accumulators; called whenever the
// cluster knob moves, since the stolen-work rates of the old policy
// say nothing about the new one.
func (c *Controller) resetLocality() {
	c.locSteals, c.locStolenRefs, c.locStolenMisses = 0, 0, 0
	c.locRefs, c.locMisses, c.locEpochs = 0, 0, 0
}

// record appends a decision to the trace, enforcing traceCap.
func (c *Controller) record(d Decision) {
	if len(c.trace) >= c.pol.traceCap {
		c.dropped++
		return
	}
	d.Seq = len(c.trace)
	d.Epoch = c.epochN
	c.trace = append(c.trace, d)
}

// Replay folds a decision trace over an initial state and returns the
// final state. For any controller, Replay(init, Decisions()) must
// equal State() as long as no decisions were dropped — every policy
// change is reconstructible from the trace.
func Replay(init State, ds []Decision) State {
	st := init
	for _, d := range ds {
		if d.Knob == KnobCluster {
			st.ClusterOnly = d.To != 0
		}
	}
	return st
}
