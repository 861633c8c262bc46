package adapt

import "testing"

// feed drives the controller with a scripted stream of per-epoch
// DELTAS (accumulating them into the cumulative snapshots Epoch
// expects) and returns the final state.
func feed(c *Controller, deltas []Snapshot) State {
	cum := c.prev // resume from the controller's cumulative view
	now := c.epochN * 1000
	for _, d := range deltas {
		cum.StealTries += d.StealTries
		cum.FailedSteals += d.FailedSteals
		cum.StealsLocal += d.StealsLocal
		cum.StealsRemote += d.StealsRemote
		cum.SetSteals += d.SetSteals
		cum.TargetedWakes += d.TargetedWakes
		cum.BroadcastWakes += d.BroadcastWakes
		cum.LockContention += d.LockContention
		cum.DeadlineMisses += d.DeadlineMisses
		cum.Completed += d.Completed
		cum.Refs += d.Refs
		cum.RemoteMisses += d.RemoteMisses
		cum.StolenRefs += d.StolenRefs
		cum.StolenMisses += d.StolenMisses
		cum.Queued = d.Queued
		cum.Parked = d.Parked
		cum.Workers = d.Workers
		cum.QueuedClusters = d.QueuedClusters
		cum.Clusters = d.Clusters
		now += 1000
		c.Epoch(now, cum)
	}
	return c.State()
}

// failEpoch is one epoch where every steal probe failed.
func failEpoch() Snapshot {
	return Snapshot{StealTries: 40, FailedSteals: 40, Workers: 8, Completed: 100}
}

// healthyEpoch is one epoch of paying steals.
func healthyEpoch() Snapshot {
	return Snapshot{StealTries: 40, FailedSteals: 10, StealsLocal: 20, StealsRemote: 10, Workers: 8, Completed: 100}
}

// starveEpoch is a cluster-only epoch with queued work the restricted
// thieves cannot reach while half the pool parks.
func starveEpoch() Snapshot {
	return Snapshot{Queued: 50, Parked: 4, Workers: 8, Completed: 20}
}

// TestClusterFlipUnflipSequence pins the exact decision sequence for
// the cluster knob under a scripted stream: two failing epochs flip
// cluster-only on (not one — hysteresis), two starvation epochs flip
// it back off.
func TestClusterFlipUnflipSequence(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})

	feed(c, []Snapshot{failEpoch()})
	if c.State().ClusterOnly {
		t.Fatal("flipped cluster-only after one epoch; hysteresis demands two")
	}
	feed(c, []Snapshot{failEpoch()})
	if !c.State().ClusterOnly {
		t.Fatal("two consecutive all-fail epochs must flip cluster-only on")
	}
	if c.Count() != 1 || c.DecisionAt(0).Knob != KnobCluster || c.DecisionAt(0).To != 1 {
		t.Fatalf("expected exactly one cluster-on decision, trace = %+v", c.Decisions())
	}

	feed(c, []Snapshot{starveEpoch()})
	if !c.State().ClusterOnly {
		t.Fatal("unflipped after one starvation epoch; hysteresis demands two")
	}
	feed(c, []Snapshot{starveEpoch()})
	if c.State().ClusterOnly {
		t.Fatal("two consecutive starvation epochs must flip cluster-only off")
	}
	if c.Count() != 2 || c.DecisionAt(1).Knob != KnobCluster || c.DecisionAt(1).To != 0 {
		t.Fatalf("expected a second cluster-off decision, trace = %+v", c.Decisions())
	}

	// Every decision carries the reconstruction fields.
	for _, d := range c.Decisions() {
		if d.Reason == "" || d.Action == "" || len(d.Alternatives) == 0 {
			t.Errorf("decision %d lacks trace detail: %+v", d.Seq, d)
		}
	}
}

// TestClusterStreakInterrupted pins that a healthy epoch in the middle
// of a failing streak resets it: fail, heal, fail never flips at
// hysteresis 2.
func TestClusterStreakInterrupted(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})
	feed(c, []Snapshot{failEpoch(), healthyEpoch(), failEpoch()})
	if c.State().ClusterOnly || c.Count() != 0 {
		t.Fatalf("interrupted streak must not flip; state=%+v trace=%+v", c.State(), c.Decisions())
	}
}

// TestClusterRemoteSuccessVeto pins that a high fail ratio does NOT
// flip cluster-only while remote steals still pay: 10 remote successes
// out of 100 tries is real cross-cluster work.
func TestClusterRemoteSuccessVeto(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})
	veto := Snapshot{StealTries: 100, FailedSteals: 90, StealsRemote: 10, Workers: 8, Completed: 100}
	feed(c, []Snapshot{veto, veto, veto, veto})
	if c.State().ClusterOnly {
		t.Fatal("cluster-only flipped while remote steals were paying")
	}
}

// TestReplayReconstruction pins the BLIS property: folding the
// decision trace over the initial state reproduces the controller's
// final state exactly, on a stream that moves the knob three times.
func TestReplayReconstruction(t *testing.T) {
	init := State{}
	c := New(Policy{hysteresis: 2}, init)
	storm := Snapshot{StealTries: 200, FailedSteals: 200, Workers: 8, Completed: 100}
	stream := []Snapshot{
		failEpoch(), failEpoch(), // cluster on
		starveEpoch(), starveEpoch(), // cluster off
		storm, storm, // cluster on again
	}
	final := feed(c, stream)
	if c.Count() == 0 {
		t.Fatal("stream produced no decisions; the reconstruction test needs a non-trivial trace")
	}
	if c.Dropped() != 0 {
		t.Fatalf("trace dropped %d decisions under default cap", c.Dropped())
	}
	if got := Replay(init, c.Decisions()); got != final {
		t.Fatalf("Replay(init, trace) = %+v, controller state = %+v", got, final)
	}
}

// lossyEpoch is one epoch where cross-cluster steals succeed but the
// stolen work pays triple the non-local miss rate of home-placed work:
// the locality regime probe statistics cannot see.
func lossyEpoch() Snapshot {
	return Snapshot{
		StealTries: 40, FailedSteals: 10, StealsLocal: 20, StealsRemote: 10,
		Refs: 10_000, RemoteMisses: 500, StolenRefs: 1_000, StolenMisses: 120,
		Workers: 8, Completed: 100, Clusters: 4,
	}
}

// TestLocalityRuleFlipsClusterOn pins the locality rule: remote steals
// that succeed (vetoing the fail-ratio rule) but whose stolen work pays
// >= 2x the home miss rate flip cluster-only on after hysteresis, and
// the decision explains itself in miss-rate terms.
func TestLocalityRuleFlipsClusterOn(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})
	feed(c, []Snapshot{lossyEpoch()})
	if c.State().ClusterOnly {
		t.Fatal("locality rule fired after one epoch; hysteresis demands two")
	}
	feed(c, []Snapshot{lossyEpoch()})
	if !c.State().ClusterOnly {
		t.Fatal("two lossy epochs must flip cluster-only on")
	}
	if c.Count() != 1 {
		t.Fatalf("expected exactly one decision, trace = %+v", c.Decisions())
	}
	d := c.DecisionAt(0)
	if d.Knob != KnobCluster || d.To != 1 {
		t.Fatalf("decision = %+v, want cluster-only on", d)
	}
	if want := "stolen-work miss rate"; len(d.Reason) == 0 || d.Reason[:len(want)] != want {
		t.Fatalf("decision reason %q does not name the locality signal", d.Reason)
	}
}

// TestLocalityStrongEvidenceSkipsHysteresis pins the fast path: a
// stolen-miss rate at quadruple the home rate over twice the usual
// reference volume flips cluster-only in a single epoch — waiting out
// the streak would let remotely-stolen tasks seed more wrong-cluster
// subtrees.
func TestLocalityStrongEvidenceSkipsHysteresis(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})
	ep := lossyEpoch()
	ep.StolenMisses = 250 // rate 0.25 vs home 0.028: overwhelming
	feed(c, []Snapshot{ep})
	if !c.State().ClusterOnly || c.Count() != 1 {
		t.Fatalf("overwhelming evidence must flip in one epoch: state=%+v trace=%+v", c.State(), c.Decisions())
	}
}

// TestLocalityTrickleNeverFires pins the sustained-rate floor: a steal
// trickle (one lossy remote steal every third epoch) accumulates volume
// past the absolute guards but must never flip the knob — restricting a
// whole machine over a handful of steals trades real load balance for
// noise.
func TestLocalityTrickleNeverFires(t *testing.T) {
	c := New(Policy{hysteresis: 2}, State{})
	steal := Snapshot{
		StealTries: 4, FailedSteals: 1, StealsLocal: 2, StealsRemote: 1,
		Refs: 10_000, RemoteMisses: 100, StolenRefs: 90, StolenMisses: 30,
		Workers: 8, Completed: 100, Clusters: 4,
	}
	quiet := steal
	quiet.StealsRemote, quiet.StolenRefs, quiet.StolenMisses = 0, 0, 0
	var stream []Snapshot
	for i := 0; i < 10; i++ {
		stream = append(stream, steal, quiet, quiet)
	}
	feed(c, stream)
	if c.State().ClusterOnly || c.Count() != 0 {
		t.Fatalf("trickle fired the locality rule: state=%+v trace=%+v", c.State(), c.Decisions())
	}
}

// TestLocalityRuleGuards pins the stand-down conditions: a deep backlog
// concentrated in a minority of clusters, too few remote steals, or a
// stolen-miss rate under the absolute floor must each block the flip.
func TestLocalityRuleGuards(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"concentrated backlog", func(s *Snapshot) { s.Queued = 100; s.QueuedClusters = 1 }},
		{"no remote steals", func(s *Snapshot) { s.StealsRemote = 0 }},
		{"too few stolen refs", func(s *Snapshot) { s.StolenRefs = 8; s.StolenMisses = 2 }},
		{"rate under floor", func(s *Snapshot) { s.RemoteMisses = 15; s.StolenMisses = 15 }},
	}
	for _, tc := range cases {
		c := New(Policy{hysteresis: 2}, State{})
		ep := lossyEpoch()
		tc.mut(&ep)
		feed(c, []Snapshot{ep, ep, ep, ep})
		if c.State().ClusterOnly || c.Count() != 0 {
			t.Errorf("%s: locality rule fired anyway: state=%+v trace=%+v", tc.name, c.State(), c.Decisions())
		}
	}
}

// TestTraceCap pins that the trace cap applies decisions but stops
// recording them, counting the overflow.
func TestTraceCap(t *testing.T) {
	c := New(Policy{hysteresis: 1, traceCap: 1}, State{})
	feed(c, []Snapshot{failEpoch(), starveEpoch()}) // hysteresis 1: flip on, then off
	if c.Count() != 1 {
		t.Fatalf("trace length = %d, want capped 1", c.Count())
	}
	if c.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", c.Dropped())
	}
	if c.State().ClusterOnly {
		t.Fatal("capped decision must still be applied")
	}
}
