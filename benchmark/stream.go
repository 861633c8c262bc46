package main

import (
	"fmt"
	"math/rand"
)

// job is one generated input: a catalog job kind, the affinity key it
// is submitted under (serve workloads) and the simulated machine size
// (sim-figures; 0 on the native backend).
type job struct {
	App   string
	Size  string
	Key   string
	Procs int
}

// kind identifies what is computed, and so which reference the job's
// output is checked against; the key only says where it runs.
func (j job) kind() string { return fmt.Sprintf("%s/%s/p%d", j.App, j.Size, j.Procs) }

// mixEntry is count copies of one job in a workload's block.
type mixEntry struct {
	job   job
	count int
}

// expand lays a block's multiset out in mix order.
func expand(mix []mixEntry) []job {
	var out []job
	for _, m := range mix {
		for i := 0; i < m.count; i++ {
			out = append(out, m.job)
		}
	}
	return out
}

// distinct returns each different job of the mix once, in mix order:
// the first-touch sequence a cold start runs.
func distinct(mix []mixEntry) []job {
	seen := make(map[job]bool)
	var out []job
	for _, m := range mix {
		if !seen[m.job] {
			seen[m.job] = true
			out = append(out, m.job)
		}
	}
	return out
}

// stream generates a workload's block sequences from the seed. Every
// block holds the same multiset of jobs, so blocks are equal work and
// comparable; the seed decides only the order, which is what routing,
// residency and head-of-line blocking react to.
type stream struct {
	base []job
	rng  *rand.Rand
}

func newStream(mix []mixEntry, seed int64) *stream {
	return &stream{base: expand(mix), rng: rand.New(rand.NewSource(seed))}
}

// block returns the next block's job order.
func (s *stream) block() []job {
	out := append([]job(nil), s.base...)
	s.rng.Shuffle(len(out), func(i, k int) { out[i], out[k] = out[k], out[i] })
	return out
}
