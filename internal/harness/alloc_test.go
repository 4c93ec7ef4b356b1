//go:build !race

// Race instrumentation changes allocation counts, so this gate runs only in
// uninstrumented builds.

package harness

import (
	"runtime"
	"testing"

	"github.com/reproductions/cppe/internal/workload"
)

// TestSweepAllocationGate bounds a sweep's heap allocation per simulation
// run. Allocation counts are deterministic — the same code path allocates the
// same objects on any machine — so unlike wall time they can gate in CI. The
// sweep is a Parallelism-1 Warm over the Fig. 8 keys of the first eight
// benchmarks (32 runs) at scale 0.05, with every trace generated before the
// measurement, as the benchmark harness does. The session's free list
// settles at one group of four machines: four builds, 28 Resets.
//
// Measured with go1.24 on linux/amd64: 373 allocs and 0.180 MB per run.
// Before machines were reused and the fault path pooled, the same sweep
// allocated 6,073 allocs and 1.486 MB per run. The bounds leave 50% headroom
// over the measurement.
func TestSweepAllocationGate(t *testing.T) {
	const (
		maxAllocsPerRun = 560
		maxBytesPerRun  = 270_000
	)
	benches := workload.Abbrs()[:8]
	var keys []Key
	for _, b := range benches {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "baseline", pct}, Key{b, "cppe", pct})
		}
	}
	s := NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 1})
	for _, b := range benches {
		bench, _ := workload.ByAbbr(b)
		s.generated(bench)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	s.Warm(keys)
	runtime.ReadMemStats(&m1)
	if got := s.CachedRuns(); got != len(keys) {
		t.Fatalf("warmed %d of %d keys", got, len(keys))
	}
	runs := float64(len(keys))
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("%.0f allocs/run, %.3f MB/run over %d runs", allocs, bytes/1e6, len(keys))
	if allocs > maxAllocsPerRun {
		t.Errorf("%.0f allocs per run, bound %d", allocs, maxAllocsPerRun)
	}
	if bytes > maxBytesPerRun {
		t.Errorf("%.0f bytes per run, bound %d", bytes, maxBytesPerRun)
	}
}
