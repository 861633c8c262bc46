package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be reordered
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {25, 2}, {75, 4}, {100, 5}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its argument: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// The 95th percentile of 14 samples is their maximum, of 400 the 380th.
	fourteen := make([]float64, 14)
	for i := range fourteen {
		fourteen[i] = float64(i + 1)
	}
	if got := percentile(fourteen, 95); got != 14 {
		t.Errorf("p95 of 1..14 = %g, want 14", got)
	}
}

func TestBestQuartileTakesTheGoodSide(t *testing.T) {
	blocks := []float64{100, 101, 99, 102, 60, 98, 100, 103} // one block hit by interference
	if got := bestQuartile(blocks, true); got != 101 {
		t.Errorf("best quartile of rates = %g, want 101", got)
	}
	if got := bestQuartile(blocks, false); got != 98 {
		t.Errorf("best quartile of times = %g, want 98", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if spread([]float64{7}) != 0 || spread(nil) != 0 {
		t.Error("spread of fewer than two values must be 0")
	}
}

// A pass's end-to-end metrics are per-block values reduced by the best
// quartile, except allocation, which is whole-pass.
func TestPassArithmetic(t *testing.T) {
	// The machine ran at half the reference speed throughout.
	p := pass{allocBytes: 8 << 20, mallocs: 800, slow: 2, slowCPU: 2}
	for i, rate := range []float64{100, 50, 100, 100} { // second block ran at half speed
		lat := []float64{1, 2, 3, 4}
		if i == 1 {
			lat = []float64{2, 4, 6, 8}
		}
		p.blocks = append(p.blocks, block{jobs: 4, elapsedS: 4 / rate, cpuMS: 4 * 100 / rate, latencyMS: lat})
	}
	m := p.endToEnd()
	want := map[string]float64{
		"jobs_per_s": 200, "p50_ms": 1, "p95_ms": 2, "cpu_ms_per_job": 0.5,
		"alloc_mb_per_job": 0.5, "allocs_per_job": 50,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, w)
		}
	}
	h := make(map[string]float64)
	p.harness(h)
	if got, want := h["harness.jobs_per_s_plain"], 16/(3*0.04+0.08); math.Abs(got-want) > 1e-9 {
		t.Errorf("plain rate = %g, want %g", got, want)
	}
	if h["harness.latency_samples"] != 16 || h["harness.blocks"] != 4 {
		t.Errorf("samples %g blocks %g, want 16 and 4", h["harness.latency_samples"], h["harness.blocks"])
	}
}
