// Package machine describes the simulated multiprocessor: its topology
// (processors grouped into clusters) and the latency of each level of the
// memory hierarchy.
//
// The defaults model the Stanford DASH prototype used in the paper:
// 32 processors in 8 clusters of 4, a 64 KB first-level cache and a 256 KB
// second-level cache per processor, with latencies of 1 cycle (L1 hit),
// ~14 cycles (L2 hit), ~30 cycles (local cluster memory) and 100-150 cycles
// (remote cluster memory).
package machine

import (
	"errors"
	"fmt"
)

// Latencies holds the cost, in processor cycles, of each memory-hierarchy
// level and of the runtime operations the scheduler charges for.
type Latencies struct {
	// Memory hierarchy.
	L1Hit       int64 // first-level cache hit
	L2Hit       int64 // second-level cache hit
	LocalMem    int64 // miss serviced by local cluster memory
	RemoteMem   int64 // miss serviced by a remote cluster's memory
	RemoteDirty int64 // miss serviced by a dirty line in a remote cache
	Upgrade     int64 // write upgrade of a shared line (invalidate sharers)

	// MemOccupancy is how long one miss occupies its home memory module.
	// Concurrent misses to the same cluster's memory queue behind each
	// other, so concentrating data in one memory saturates it — the
	// bandwidth effect the paper credits for the "Distr" versions.
	MemOccupancy int64

	// Runtime operations.
	Dispatch    int64 // dequeue a task from a local queue
	Spawn       int64 // create and enqueue a task
	EnqueueAway int64 // extra cost to enqueue onto a remote server's queue
	StealLocal  int64 // probe a queue of a server in the same cluster
	StealRemote int64 // probe a queue of a server in a remote cluster
	LockOp      int64 // monitor acquire/release
	Wakeup      int64 // unblocking a task
	MigratePage int64 // migrating one page between cluster memories
	IdlePoll    int64 // delay before an idle processor probes for steals
}

// CacheGeometry describes one level of a set-associative cache.
type CacheGeometry struct {
	Size  int // total bytes
	Assoc int // ways per set
}

// Config is a complete description of the simulated machine.
type Config struct {
	Processors  int // total number of processors (server processes)
	ClusterSize int // processors per cluster; memory is shared per cluster

	LineSize int // cache line size in bytes (power of two)
	PageSize int // memory page size in bytes (power of two); migration unit

	L1 CacheGeometry
	L2 CacheGeometry

	Lat Latencies

	// Quantum is the number of cycles a task may run before the engine
	// re-interleaves processors. Smaller values increase timing fidelity
	// at some simulation cost.
	Quantum int64
}

// DASHLatencies returns the latency table quoted in the paper for the
// Stanford DASH prototype.
func DASHLatencies() Latencies {
	return Latencies{
		L1Hit:       1,
		L2Hit:       14,
		LocalMem:    30,
		RemoteMem:   115,
		RemoteDirty: 150,
		Upgrade:     60,

		MemOccupancy: 22,

		Dispatch:    40,
		Spawn:       60,
		EnqueueAway: 40,
		StealLocal:  60,
		StealRemote: 180,
		LockOp:      20,
		Wakeup:      40,
		MigratePage: 600,
		IdlePoll:    1000,
	}
}

// DASH returns a configuration modelling a DASH prototype with p
// processors (clusters of four).
func DASH(p int) Config {
	return Config{
		Processors:  p,
		ClusterSize: 4,
		LineSize:    64,
		PageSize:    4096,
		L1:          CacheGeometry{Size: 64 << 10, Assoc: 2},
		L2:          CacheGeometry{Size: 256 << 10, Assoc: 4},
		Lat:         DASHLatencies(),
		Quantum:     4000,
	}
}

// UniformBus returns a bus-based machine with per-processor caches and a
// single shared memory of uniform latency — the SGI-workstation setting
// of Fowler's object-affinity scheduling discussed in the paper's related
// work (§7). With one cluster there is no local/remote distinction;
// affinity hints can only pay through cache reuse and bus bandwidth.
func UniformBus(p int) Config {
	c := DASH(p)
	c.ClusterSize = p
	c.Lat.LocalMem = 60
	c.Lat.RemoteMem = 60 // unreachable: a single cluster is always local
	c.Lat.RemoteDirty = 75
	c.Lat.StealRemote = c.Lat.StealLocal
	c.Lat.MemOccupancy = 26 // one bus serves everyone
	return c
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Processors <= 0:
		return errors.New("machine: Processors must be positive")
	case c.Processors > 64:
		return errors.New("machine: at most 64 processors are supported")
	case c.ClusterSize <= 0:
		return errors.New("machine: ClusterSize must be positive")
	case c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("machine: LineSize %d must be a positive power of two", c.LineSize)
	case c.PageSize < c.LineSize || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("machine: PageSize %d must be a power of two >= LineSize", c.PageSize)
	case c.Quantum <= 0:
		return errors.New("machine: Quantum must be positive")
	}
	for _, g := range []CacheGeometry{c.L1, c.L2} {
		if g.Size <= 0 || g.Assoc <= 0 {
			return errors.New("machine: cache size and associativity must be positive")
		}
		if g.Size%(g.Assoc*c.LineSize) != 0 {
			return fmt.Errorf("machine: cache size %d not divisible by assoc*line (%d)", g.Size, g.Assoc*c.LineSize)
		}
		if sets := g.Size / (g.Assoc * c.LineSize); sets&(sets-1) != 0 {
			return fmt.Errorf("machine: cache with %d sets; set count must be a power of two", sets)
		}
	}
	if c.L1.Size > c.L2.Size {
		return errors.New("machine: L1 must not be larger than L2")
	}
	return nil
}

// Clusters returns the number of clusters in the machine. A partial final
// cluster counts as one cluster. The topology helpers take a pointer: the
// cache model and the scheduler call them per miss and per steal probe,
// and a value receiver would copy the whole Config each time.
func (c *Config) Clusters() int {
	return (c.Processors + c.ClusterSize - 1) / c.ClusterSize
}

// ClusterOf returns the cluster that processor p belongs to.
func (c *Config) ClusterOf(p int) int {
	return p / c.ClusterSize
}

// SameCluster reports whether processors p and q share a cluster (and
// therefore a local memory).
func (c *Config) SameCluster(p, q int) bool {
	return c.ClusterOf(p) == c.ClusterOf(q)
}
