package main

// metric is one entry of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are the numbers a user of the system sees, the same
// on every workload.
var endToEndMetrics = []metric{
	{"setup_s", "s", lower, 0.25},
	{"jobs_per_s", "1/s", higher, 0.20},
	{"p50_ms", "ms", lower, 0.25},
	{"p95_ms", "ms", lower, 0.25},
	{"cpu_ms_per_job", "ms", lower, 0.25},
	{"alloc_mb_per_job", "MiB", lower, 0.06},
	{"allocs_per_job", "count", lower, 0.10},
}

// perLayerMetrics are the numbers of single layers, from the traced
// pass, the program's own reports and the direct probes. A layer the
// workload bypasses reports 0.
var perLayerMetrics = []metric{
	{Name: "serve.http.post_us", Unit: "us", Better: lower},
	{Name: "serve.http.get_us", Unit: "us", Better: lower},
	{Name: "serve.http.noop_job_us", Unit: "us", Better: lower},
	{Name: "serve.admission.admit_ns", Unit: "ns", Better: lower},
	{Name: "serve.router.pick_ns", Unit: "ns", Better: lower},
	{Name: "serve.router.home_share", Unit: "share", Better: higher},
	{Name: "serve.pool.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "serve.pool.queue_wait_p95_ms", Unit: "ms", Better: lower},
	{Name: "serve.pool.run_ms", Unit: "ms", Better: lower},
	{Name: "serve.pool.reset_gap_us", Unit: "us", Better: lower},
	{Name: "serve.pool.noop_job_us", Unit: "us", Better: lower},
	{Name: "serve.pool.rebuilds", Unit: "count", Better: lower},
	{Name: "serve.residency.hit_share", Unit: "share", Better: higher},
	{Name: "serve.residency.lookup_ns", Unit: "ns", Better: lower},
	{Name: "serve.accounted_share", Unit: "share", Better: higher},
	{Name: "apps.prepare_ms", Unit: "ms", Better: lower},
	{Name: "apps.run_prepared_ms", Unit: "ms", Better: lower},
	{Name: "apps.run_unprepared_ms", Unit: "ms", Better: lower},
	{Name: "cool.new_runtime_us.native", Unit: "us", Better: lower},
	{Name: "cool.new_runtime_us.sim", Unit: "us", Better: lower},
	{Name: "cool.run_empty_us", Unit: "us", Better: lower},
	{Name: "cool.reset_us", Unit: "us", Better: lower},
	{Name: "cool.spawn_ns", Unit: "ns", Better: lower},
	{Name: "cool.spawnn_ns", Unit: "ns", Better: lower},
	{Name: "cool.spawn_taskaff_ns", Unit: "ns", Better: lower},
	{Name: "cool.spawn_objaff_ns", Unit: "ns", Better: lower},
	{Name: "cool.spawn_allocs", Unit: "count", Better: lower},
	{Name: "cool.trace_on_share", Unit: "share", Better: lower},
	{Name: "native.tasks_per_job", Unit: "count", Better: lower},
	{Name: "native.ns_per_task", Unit: "ns", Better: lower},
	{Name: "native.steals_per_job", Unit: "count", Better: lower},
	{Name: "native.failed_steals_per_job", Unit: "count", Better: lower},
	{Name: "native.steal_hit_share", Unit: "share", Better: higher},
	{Name: "native.set_steals_per_job", Unit: "count", Better: lower},
	{Name: "native.wakes_per_job", Unit: "count", Better: lower},
	{Name: "native.spawn_batches_per_job", Unit: "count", Better: higher},
	{Name: "native.lock_contention_per_job", Unit: "count", Better: lower},
	{Name: "native.busy_share", Unit: "share", Better: higher},
	{Name: "native.home_share", Unit: "share", Better: higher},
	{Name: "native.set_splits", Unit: "count", Better: lower},
	{Name: "native.speedup_p", Unit: "x", Better: higher},
	{Name: "native.efficiency", Unit: "share", Better: higher},
	{Name: "sim.cycles_total", Unit: "cycles", Better: lower},
	{Name: "sim.speedup_geomean_p32", Unit: "x", Better: higher},
	{Name: "sim.tasks_total", Unit: "count", Better: lower},
	{Name: "sim.refs_total", Unit: "count", Better: lower},
	{Name: "sim.miss_rate", Unit: "share", Better: lower},
	{Name: "sim.local_fraction", Unit: "share", Better: higher},
	{Name: "sim.home_share", Unit: "share", Better: higher},
	{Name: "sim.steals_total", Unit: "count", Better: lower},
	{Name: "sim.failed_steals_total", Unit: "count", Better: lower},
	{Name: "sim.wakes_total", Unit: "count", Better: lower},
	{Name: "sim.host_ns_per_task", Unit: "ns", Better: lower},
	{Name: "sim.host_ns_per_ref", Unit: "ns", Better: lower},
	{Name: "sim.host_ns_per_kcycle", Unit: "ns", Better: lower},
	{Name: "sim.engine.ns_per_task", Unit: "ns", Better: lower},
	{Name: "sim.memsim.ns_per_ref", Unit: "ns", Better: lower},
	{Name: "harness.trace_overhead_share", Unit: "share", Better: lower},
	{Name: "harness.block_spread", Unit: "share", Better: lower},
	{Name: "harness.jobs_per_s_plain", Unit: "1/s", Better: higher},
	{Name: "harness.p50_ms_plain", Unit: "ms", Better: lower},
	{Name: "harness.p95_ms_plain", Unit: "ms", Better: lower},
	{Name: "harness.machine_slowness", Unit: "x", Better: lower},
	{Name: "harness.machine_slowness_cpu", Unit: "x", Better: lower},
	{Name: "harness.blocks", Unit: "count", Better: higher},
	{Name: "harness.latency_samples", Unit: "count", Better: higher},
	{Name: "harness.num_cpu", Unit: "count", Better: higher},
	{Name: "harness.gomaxprocs", Unit: "count", Better: higher},
}

// runSeconds is how long one run measures, BENCHMARK.json's run_seconds.
const runSeconds = 20

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metric        `json:"end_to_end"`
	PerLayer   []metric        `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func newManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	return m
}
