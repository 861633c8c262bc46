package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload's whole life cycle on one tiny
// block: set-up, the untraced pass, the traced pass, the probes, the
// output check and teardown (runWorkload fails on a leaked goroutine).
func TestQuickSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				o := options{seed: 1, seconds: 0.01, trace: trace, quick: true, outDir: t.TempDir()}
				res, err := runWorkload(ctx, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() || res.attempted == 0 {
					t.Fatalf("attempted %d, failed %d (%v), broken %v", res.attempted, res.failed, res.firstErr, res.broken)
				}
				want := []string{"setup_s", "jobs_per_s", "p50_ms", "p95_ms", "cpu_ms_per_job", "alloc_mb_per_job", "allocs_per_job"}
				if trace {
					want = append(layersWorked[w.name], "cool.spawn_ns", "serve.http.post_us", "sim.engine.ns_per_task", "harness.jobs_per_s_plain")
				}
				for _, name := range want {
					if v := res.metrics[name]; !(v > 0) {
						t.Errorf("%s = %g, want > 0", name, v)
					}
				}
				if trace {
					if got := res.metrics["serve.accounted_share"]; got < 0.9 {
						t.Errorf("spans explain %.2f of job time, want >= 0.9", got)
					}
					if _, err := os.Stat(res.spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

// layersWorked names, per workload, per-layer metrics that are zero
// only if the layer the workload exists to exercise was bypassed.
var layersWorked = map[string][]string{
	"serve-affinity":     {"serve.residency.hit_share", "serve.router.home_share", "serve.pool.queue_wait_ms", "native.tasks_per_job"},
	"serve-http-keyless": {"serve.pool.run_ms", "native.tasks_per_job", "native.speedup_p"},
	"native-fine":        {"native.steals_per_job", "native.speedup_p", "native.busy_share"},
	"sim-figures":        {"sim.cycles_total", "sim.refs_total", "sim.speedup_geomean_p32", "sim.host_ns_per_task"},
}

// BENCHMARK.json is generated from the tables in this package
// (coolbenchmark -manifest); the two must not drift apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(newManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from coolbenchmark -manifest; regenerate it")
	}
}

func TestManifestLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := newManifest()
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		use(e.Name)
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
		if !(e.Bound > 0 && e.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, e := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(e.Unit) || (e.Better != lower && e.Better != higher) {
			t.Errorf("%s: unit %q or direction %q is malformed", e.Name, e.Unit, e.Better)
		}
	}
	for _, e := range m.PerLayer {
		use(e.Name)
		if e.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", e.Name)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, limit 128", n)
	}
}
