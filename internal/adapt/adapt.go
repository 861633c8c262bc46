// Package adapt is the online scheduling-policy controller: a small,
// dependency-free decision engine that turns per-epoch counter deltas
// into adjustments of the runtime's live policy vector — cluster-only
// stealing, wake fanout, steal-backoff scale, and the shed-floor bias.
//
// The controller is backend-agnostic and deliberately pure: the
// deterministic simulator and the native runtime feed it cumulative
// counter snapshots at their own epoch boundaries (a simulated-cycle
// interval there, timekeeper ticks here) and apply the returned state
// through their own mechanisms. Purity is what keeps the sim runs
// bit-stable and lets the hysteresis rules be unit-tested with
// scripted counter streams.
//
// Rules handle the regimes with a crisp counter signature: probe-fail
// storms, starvation under a restriction, backlog vs wake width, and —
// when the backend attributes memory references to stolen work — the
// locality regime itself, where cross-cluster steals "succeed" but the
// stolen tasks pay a non-local miss rate far above what home-placed
// work pays. For backends without that attribution the controller
// falls back to counterfactual trials: when the rules have been quiet
// for a while it briefly flips the cluster knob, compares
// completed-tasks-per-epoch against the pre-trial baseline, and keeps
// or reverts the flip. Successive trials back off exponentially, and
// the first rule firing on the knob disables trials outright — a knob
// the rules can see does not need blind exploration.
//
// Every state change is recorded as a BLIS-style decision trace entry:
// the knob, the action taken, the triggering counter delta, a score,
// and the top scored alternatives that were NOT taken. Replay folds a
// trace over the initial state and must land exactly on the
// controller's final state — the reconstruction property the bench
// harness asserts for every adaptive run.
package adapt

import "fmt"

// DefaultWakeFanout is the fanout both backends use when no controller
// is installed; it is the controller's initial fanout as well.
const DefaultWakeFanout = 4

// Knob names used in Decision entries (and Replay).
const (
	KnobCluster = "cluster" // cluster-only stealing on/off
	KnobFanout  = "fanout"  // wake fanout width
	KnobBackoff = "backoff" // steal-backoff scale (power of two)
	KnobShed    = "shed"    // shed-floor bias (power of two)
)

// Internal rule bounds that are deliberately not Policy knobs: they
// shape second-order behaviour and tuning them per-run has never been
// needed.
const (
	minTriesPerEpoch = 8    // below this many probes a fail ratio is noise
	maxBackoffShift  = 3    // at most 8x the base steal backoff
	maxShedBias      = 3    // shed floor tightened at most 8x
	backoffFailHigh  = 0.90 // probe-fail ratio that raises the backoff
	backoffFailLow   = 0.50 // probe-fail ratio that lowers it again
	missRateHigh     = 0.05 // deadline-miss rate that tightens the shed floor
	maxTrialSpacing  = 128  // trial back-off ladder cap, in quiet epochs

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
// zero value selects backend defaults for everything. Only Epoch and
// Start are settable from outside this package; the rule thresholds
// below have one value in use everywhere and are fields only so that
// this package's tests can script them.
type Policy struct {
	// Epoch is the controller interval: simulated cycles on the
	// simulator (default 50_000), wall-clock nanoseconds on the native
	// backend (default 1_000_000). The controller itself never reads it
	// — the backend's epoch driver does.
	Epoch int64
	// hysteresis is how many consecutive epochs a signal must persist
	// before the controller acts on it (default 2).
	hysteresis int
	// traceCap bounds the decision trace (default 256); decisions past
	// the cap are applied but not recorded, and counted in Dropped.
	traceCap int
	// stealFailHigh is the FailedSteals/StealTries ratio above which
	// cross-cluster stealing is judged not to pay (default 0.75).
	stealFailHigh float64
	// minFanout / maxFanout bound the wake fanout (defaults 2 / 32).
	minFanout, maxFanout int
	// trialFirst is how many rule-quiet epochs pass before the first
	// counterfactual trial of the cluster knob (default 4). Successive
	// trials double the spacing, capped at maxTrialSpacing; a kept
	// trial resets the ladder so a changed regime is re-challenged
	// promptly.
	trialFirst int
	// trialLen is how many epochs a trial runs before its throughput is
	// compared against the pre-trial baseline (default 2).
	trialLen int
	// trialMargin is the relative completed-per-epoch improvement a
	// trial must show to be kept (default 0.05).
	trialMargin float64
	// noTrial disables counterfactual trials (rule-driven flips only).
	noTrial bool
	// Per-knob opt-outs.
	noCluster, noWake, noBackoff, noShed bool
	// Start, when non-nil, warm-starts the run: the controller and the
	// live scheduler begin from this previously learned policy vector
	// instead of the configuration's defaults. Harvest the vector with
	// Runtime.AdaptState at the end of one run and pass it to the next —
	// repeated runs of the same workload then skip the cold observation
	// epochs. A zero WakeFanout means "keep the backend default".
	Start *State
}

func (p Policy) withDefaults() Policy {
	if p.hysteresis <= 0 {
		p.hysteresis = 2
	}
	if p.traceCap <= 0 {
		p.traceCap = 256
	}
	if p.stealFailHigh <= 0 {
		p.stealFailHigh = 0.75
	}
	if p.minFanout <= 0 {
		p.minFanout = 2
	}
	if p.maxFanout <= 0 {
		p.maxFanout = 32
	}
	if p.maxFanout < p.minFanout {
		p.maxFanout = p.minFanout
	}
	if p.trialFirst <= 0 {
		p.trialFirst = 4
	}
	if p.trialLen <= 0 {
		p.trialLen = 2
	}
	if p.trialMargin <= 0 {
		p.trialMargin = 0.05
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

// State is the live policy vector the controller drives.
type State struct {
	ClusterOnly  bool
	WakeFanout   int
	BackoffShift int // steal backoff scaled by 1<<shift (native only)
	ShedBias     int // shed high-water divided by 1<<bias (native only)
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
	Time         int64  // backend clock (cycles or nanoseconds)
	Knob         string // KnobCluster, KnobFanout, KnobBackoff, KnobShed
	Action       string
	From, To     int64
	Reason       string        // triggering counters, human-readable
	Score        float64       // signal strength behind the chosen action
	Alternatives []Alternative // top-k counterfactuals, best first
	Delta        Snapshot      // the epoch's counter delta that triggered it
}

// Controller holds the hysteresis state machine. Not safe for
// concurrent use: exactly one goroutine (the sim event loop or the
// native timekeeper) calls Epoch; readers use Decisions after the run.
type Controller struct {
	pol     Policy
	st      State
	initSt  State
	prev    Snapshot
	epochN  int64
	trace   []Decision
	dropped int64

	// Consecutive-epoch signal streaks, one pair per knob.
	clusterOn, clusterOff int

	// ruleOwned is set the first time a counter rule moves the cluster
	// knob. From then on the rules own it and counterfactual trials stop:
	// the rules' signals are bidirectional (locality/probe-fail to turn
	// it on, starvation to turn it off), so blind exploration can only
	// add churn on top of them.
	ruleOwned bool

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
	fanWiden, fanNarrow                       int
	backUp, backDown                          int
	shedUp, shedDown                          int

	// Counterfactual-trial state for the cluster knob.
	emaTput   float64 // completed-per-epoch baseline, recency-weighted
	emaOK     bool
	quiet     int     // active epochs since the cluster knob last moved
	nextTrial int     // quiet-epoch threshold for the next trial
	trialLeft int     // >0 while a trial window is being measured
	trialSum  int64   // completed during the trial window
	trialPre  float64 // baseline the trial must beat
}

// New creates a controller starting from init (the runtime's
// configured policy). A non-positive init fanout becomes the default.
func New(pol Policy, init State) *Controller {
	pol = pol.withDefaults()
	if init.WakeFanout <= 0 {
		init.WakeFanout = DefaultWakeFanout
	}
	return &Controller{pol: pol, st: init, initSt: init, nextTrial: pol.trialFirst}
}

// State returns the current policy vector.
func (c *Controller) State() State { return c.st }

// Init returns the policy vector the controller started from — the
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
// returns the (possibly updated) policy vector plus whether anything
// changed this epoch.
func (c *Controller) Epoch(now int64, cum Snapshot) (State, bool) {
	d := cum.Delta(c.prev)
	c.prev = cum
	c.epochN++
	changed := false
	if !c.pol.noCluster {
		changed = c.clusterEpoch(now, d) || changed
	}
	if !c.pol.noWake {
		changed = c.fanoutEpoch(now, d) || changed
	}
	if !c.pol.noBackoff {
		changed = c.backoffEpoch(now, d) || changed
	}
	if !c.pol.noShed {
		changed = c.shedEpoch(now, d) || changed
	}
	return c.st, changed
}

// ratio is n/d with 0/0 == 0.
func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// clusterEpoch drives the cluster knob: crisp counter rules first,
// and when those have been quiet, exponentially-spaced counterfactual
// trials that measure what the rules cannot (locality value).
func (c *Controller) clusterEpoch(now int64, d Snapshot) bool {
	if c.clusterRules(now, d) {
		// A rule moved the knob on a strong signal: abandon any trial in
		// flight and restart the exploration ladder for the new regime.
		c.trialLeft = 0
		c.quiet = 0
		c.nextTrial = c.pol.trialFirst
		return true
	}
	return c.clusterTrial(now, d)
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
			fail >= c.pol.stealFailHigh && !remotePaying

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
		c.ruleOwned = true
		c.onByLocality = !failSignal
		dec := Decision{
			Time: now, Knob: KnobCluster, Action: "cluster-only on",
			From: 0, To: 1,
			Delta: d,
		}
		if failSignal {
			dec.Reason = fmt.Sprintf("probe fail ratio %.2f >= %.2f over %d tries (%d remote successes) for %d epochs",
				fail, c.pol.stealFailHigh, tries, d.StealsRemote, epochs)
			dec.Score = fail
			dec.Alternatives = []Alternative{
				{Action: "keep flat stealing", Score: 1 - fail},
				{Action: "raise steal backoff only", Score: fail / 2},
			}
		} else {
			dec.Reason = fmt.Sprintf("stolen-work miss rate %.3f >= 2x home rate %.3f over %d stolen refs (%d remote steals) for %d epochs",
				stolenRate, homeRate, c.locStolenRefs, c.locSteals, epochs)
			dec.Score = ratio(int64(stolenRate*1000), int64(homeRate*1000)+1)
			dec.Alternatives = []Alternative{
				{Action: "keep flat stealing", Score: 1},
				{Action: "raise steal backoff only", Score: 0.5},
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
	c.ruleOwned = true
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
			{Action: "widen wake fanout only", Score: score / 2},
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

// onoff renders a cluster knob value for decision actions.
func onoff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

// clusterTrial is the counterfactual arm of the cluster knob: probe
// statistics cannot price locality (a cross-cluster steal that
// "succeeds" may still lose to the remote misses it drags behind it),
// so after enough rule-quiet epochs the controller flips the knob,
// measures completed-per-epoch for a short window, and keeps the flip
// only when throughput beats the pre-trial baseline by trialMargin.
// Trials space out exponentially, so a settled run stops paying for
// exploration; a kept trial resets the ladder because a regime that
// just changed once may change again.
func (c *Controller) clusterTrial(now int64, d Snapshot) bool {
	// Trials exist for backends that cannot see locality. A backend
	// reporting memory references has the stolen-work attribution the
	// locality rule runs on — there, blind exploration only adds churn
	// on top of a rule that measures the same thing directly. The same
	// goes once any rule has moved the knob (ruleOwned).
	if c.pol.noTrial || c.ruleOwned || d.Refs > 0 {
		return false
	}
	if c.trialLeft > 0 {
		c.trialSum += d.Completed
		c.trialLeft--
		if c.trialLeft > 0 {
			return false
		}
		tput := float64(c.trialSum) / float64(c.pol.trialLen)
		c.quiet = 0
		cur := c.st.ClusterOnly
		if tput > c.trialPre*(1+c.pol.trialMargin) {
			// Kept: the trial arm becomes the baseline and the ladder
			// restarts. From == To — the state already moved at trial
			// start — so Replay treats this as the no-op it is.
			c.emaTput = tput
			c.nextTrial = c.pol.trialFirst
			v := b2i(cur)
			c.record(Decision{
				Time: now, Knob: KnobCluster, Action: "trial kept cluster-only " + onoff(cur),
				From: v, To: v,
				Reason: fmt.Sprintf("trial throughput %.0f/epoch beats pre-trial %.0f by more than %.0f%%",
					tput, c.trialPre, c.pol.trialMargin*100),
				Score: ratio(int64(tput), int64(c.trialPre+1)),
				Alternatives: []Alternative{
					{Action: "revert to cluster-only " + onoff(!cur), Score: ratio(int64(c.trialPre), int64(tput+1))},
				},
				Delta: d,
			})
			return true
		}
		c.st.ClusterOnly = !cur
		if c.nextTrial < maxTrialSpacing {
			c.nextTrial *= 2
		}
		c.record(Decision{
			Time: now, Knob: KnobCluster, Action: "trial reverted cluster-only " + onoff(!cur),
			From: b2i(cur), To: b2i(!cur),
			Reason: fmt.Sprintf("trial throughput %.0f/epoch did not beat pre-trial %.0f; next trial after %d quiet epochs",
				tput, c.trialPre, c.nextTrial),
			Score: ratio(int64(c.trialPre), int64(tput+1)),
			Alternatives: []Alternative{
				{Action: "keep cluster-only " + onoff(cur), Score: ratio(int64(tput), int64(c.trialPre+1))},
			},
			Delta: d,
		})
		return true
	}
	// No trial in flight. Only active epochs count as quiet time and
	// feed the baseline — an idle runtime (a warm pool between
	// requests) must not trial-flip on zero-throughput noise.
	if d.Completed == 0 {
		return false
	}
	if !c.emaOK {
		c.emaTput = float64(d.Completed)
		c.emaOK = true
	} else {
		c.emaTput = (c.emaTput + float64(d.Completed)) / 2
	}
	c.quiet++
	if c.quiet < c.nextTrial {
		return false
	}
	from := c.st.ClusterOnly
	c.st.ClusterOnly = !from
	c.trialPre = c.emaTput
	c.trialLeft = c.pol.trialLen
	c.trialSum = 0
	c.quiet = 0
	c.record(Decision{
		Time: now, Knob: KnobCluster, Action: "trial cluster-only " + onoff(!from),
		From: b2i(from), To: b2i(!from),
		Reason: fmt.Sprintf("counterfactual trial after %d rule-quiet epochs (baseline %.0f completed/epoch, %d-epoch window)",
			c.nextTrial, c.trialPre, c.pol.trialLen),
		Score: 0.5,
		Alternatives: []Alternative{
			{Action: "hold cluster-only " + onoff(from), Score: 0.5},
		},
		Delta: d,
	})
	return true
}

// b2i encodes a knob boolean for Decision.From/To.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// fanoutEpoch widens the wake fanout toward broadcast while the
// machine-wide backlog outruns it, and narrows it back once targeted
// wakes suffice. The dead band between the two thresholds is what
// keeps a boundary stream from oscillating.
func (c *Controller) fanoutEpoch(now int64, d Snapshot) bool {
	fan := c.st.WakeFanout
	switch {
	// Widening only matters when someone is parked to wake; a backlog
	// with every worker already running is a throughput limit, and a
	// wider fanout just adds wake dispatches to it.
	case d.Queued > int64(2*fan) && d.Parked > 0:
		c.fanWiden++
		c.fanNarrow = 0
	case d.TargetedWakes > 0 && d.Queued*2 < int64(fan) && d.BroadcastWakes == 0:
		c.fanNarrow++
		c.fanWiden = 0
	default:
		c.fanWiden, c.fanNarrow = 0, 0
	}
	if c.fanWiden >= c.pol.hysteresis && fan < c.pol.maxFanout {
		c.fanWiden = 0
		to := fan * 2
		if to > c.pol.maxFanout {
			to = c.pol.maxFanout
		}
		c.st.WakeFanout = to
		score := ratio(d.Queued, int64(fan))
		c.record(Decision{
			Time: now, Knob: KnobFanout, Action: "widen",
			From: int64(fan), To: int64(to),
			Reason: fmt.Sprintf("backlog %d > 2x fanout %d for %d epochs", d.Queued, fan, c.pol.hysteresis),
			Score:  score,
			Alternatives: []Alternative{
				{Action: "hold fanout", Score: 1 / (1 + score)},
				{Action: "broadcast always", Score: score / 2},
			},
			Delta: d,
		})
		return true
	}
	if c.fanNarrow >= c.pol.hysteresis && fan > c.pol.minFanout {
		c.fanNarrow = 0
		to := fan / 2
		if to < c.pol.minFanout {
			to = c.pol.minFanout
		}
		c.st.WakeFanout = to
		c.record(Decision{
			Time: now, Knob: KnobFanout, Action: "narrow",
			From: int64(fan), To: int64(to),
			Reason: fmt.Sprintf("backlog %d < fanout %d/2 with no broadcasts for %d epochs",
				d.Queued, fan, c.pol.hysteresis),
			Score: 1 - ratio(d.Queued, int64(fan)),
			Alternatives: []Alternative{
				{Action: "hold fanout", Score: ratio(d.Queued, int64(fan))},
			},
			Delta: d,
		})
		return true
	}
	return false
}

// backoffEpoch scales the steal-backoff base from the probe failure
// rate: thieves that almost never find work should nap longer between
// scans (less coherence traffic on victims' queue words), and return
// to the base pace as soon as probes start paying again.
func (c *Controller) backoffEpoch(now int64, d Snapshot) bool {
	tries := d.StealTries
	fail := ratio(d.FailedSteals, tries)
	switch {
	case tries >= 4*minTriesPerEpoch && fail >= backoffFailHigh:
		c.backUp++
		c.backDown = 0
	case c.st.BackoffShift > 0 && (tries < minTriesPerEpoch || fail <= backoffFailLow):
		c.backDown++
		c.backUp = 0
	default:
		c.backUp, c.backDown = 0, 0
	}
	if c.backUp >= c.pol.hysteresis && c.st.BackoffShift < maxBackoffShift {
		c.backUp = 0
		from := c.st.BackoffShift
		c.st.BackoffShift++
		c.record(Decision{
			Time: now, Knob: KnobBackoff, Action: "backoff up",
			From: int64(from), To: int64(c.st.BackoffShift),
			Reason: fmt.Sprintf("probe fail ratio %.2f >= %.2f over %d tries for %d epochs",
				fail, backoffFailHigh, tries, c.pol.hysteresis),
			Score: fail,
			Alternatives: []Alternative{
				{Action: "hold backoff", Score: 1 - fail},
			},
			Delta: d,
		})
		return true
	}
	if c.backDown >= c.pol.hysteresis && c.st.BackoffShift > 0 {
		c.backDown = 0
		from := c.st.BackoffShift
		c.st.BackoffShift--
		c.record(Decision{
			Time: now, Knob: KnobBackoff, Action: "backoff down",
			From: int64(from), To: int64(c.st.BackoffShift),
			Reason: fmt.Sprintf("probes paying again (%d tries, fail ratio %.2f) for %d epochs",
				tries, fail, c.pol.hysteresis),
			Score: 1 - fail,
			Alternatives: []Alternative{
				{Action: "hold backoff", Score: fail},
			},
			Delta: d,
		})
		return true
	}
	return false
}

// shedEpoch nudges the shed floor from the deadline-miss rate: a
// sustained miss rate tightens the floor (sheds low-priority work
// earlier), and a miss-free epoch streak relaxes it back.
func (c *Controller) shedEpoch(now int64, d Snapshot) bool {
	missRate := ratio(d.DeadlineMisses, d.Completed)
	switch {
	case d.Completed >= 2*minTriesPerEpoch && missRate > missRateHigh:
		c.shedUp++
		c.shedDown = 0
	case c.st.ShedBias > 0 && d.DeadlineMisses == 0:
		c.shedDown++
		c.shedUp = 0
	default:
		c.shedUp, c.shedDown = 0, 0
	}
	if c.shedUp >= c.pol.hysteresis && c.st.ShedBias < maxShedBias {
		c.shedUp = 0
		from := c.st.ShedBias
		c.st.ShedBias++
		c.record(Decision{
			Time: now, Knob: KnobShed, Action: "shed tighten",
			From: int64(from), To: int64(c.st.ShedBias),
			Reason: fmt.Sprintf("deadline miss rate %.3f > %.3f (%d misses / %d done) for %d epochs",
				missRate, missRateHigh, d.DeadlineMisses, d.Completed, c.pol.hysteresis),
			Score: missRate,
			Alternatives: []Alternative{
				{Action: "hold shed floor", Score: 1 - missRate},
			},
			Delta: d,
		})
		return true
	}
	if c.shedDown >= c.pol.hysteresis && c.st.ShedBias > 0 {
		c.shedDown = 0
		from := c.st.ShedBias
		c.st.ShedBias--
		c.record(Decision{
			Time: now, Knob: KnobShed, Action: "shed relax",
			From: int64(from), To: int64(c.st.ShedBias),
			Reason: fmt.Sprintf("no deadline misses for %d epochs", c.pol.hysteresis),
			Score:  1,
			Alternatives: []Alternative{
				{Action: "hold shed floor", Score: 0},
			},
			Delta: d,
		})
		return true
	}
	return false
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
		switch d.Knob {
		case KnobCluster:
			st.ClusterOnly = d.To != 0
		case KnobFanout:
			st.WakeFanout = int(d.To)
		case KnobBackoff:
			st.BackoffShift = int(d.To)
		case KnobShed:
			st.ShedBias = int(d.To)
		}
	}
	return st
}
