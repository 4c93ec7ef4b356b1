package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/harness"
)

// smallSweep is a four-key slice of the sweep workloads: two benchmarks,
// MHPE-based and learned policies (wrong-eviction counts), and runs long
// enough to cross checkpoint boundaries (snapshot and restore).
var smallSweep = workloadDef{
	name: "test-sweep", scale: 0.25, warps: 64,
	keys: func() []harness.Key {
		return []harness.Key{
			{Bench: "SRD", Setup: "baseline", OversubPct: 50},
			{Bench: "SRD", Setup: "cppe", OversubPct: 50},
			{Bench: "NW", Setup: "learned", OversubPct: 50},
			{Bench: "NW", Setup: "hpe", OversubPct: 75},
		}
	},
}

// smallServe is a three-job slice of serve-mixed.
var smallServe = workloadDef{
	name: "test-serve", scale: 0.25, warps: 64, serve: true,
	keys: func() []harness.Key {
		return []harness.Key{
			{Bench: "SRD", Setup: "cppe", OversubPct: 50},
			{Bench: "SRD", Setup: "lru-20%", OversubPct: 50},
			{Bench: "NW", Setup: "random", OversubPct: 50},
		}
	},
}

func tracedSweepOnce(t *testing.T, seed int64) *tracedPass {
	t.Helper()
	untraced, err := runSweepPass(smallSweep, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := traceSweepPass(smallSweep, seed, untraced, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDigests("traced vs untraced", untraced.digests, p.digests); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTracedSweepCountsRepeat: two traced runs of one seed give identical
// per-layer counts and identical digests.
func TestTracedSweepCountsRepeat(t *testing.T) {
	a := tracedSweepOnce(t, 7)
	b := tracedSweepOnce(t, 7)
	if a.counts != b.counts {
		t.Fatalf("per-layer counts differ between runs:\n%+v\n%+v", a.counts, b.counts)
	}
	if !reflect.DeepEqual(a.digests, b.digests) {
		t.Fatalf("digests differ between runs:\n%v\n%v", a.digests, b.digests)
	}
	c := a.counts
	for name, v := range map[string]uint64{
		"events": c.Events, "accesses": c.Accesses, "l2 misses": c.L2Misses, "tlb misses": c.TLBMisses,
		"walks": c.Walks, "dram reads": c.DRAMReads, "h2d bytes": c.H2DBytes, "faults": c.FaultEvents,
		"evictions": c.EvictedPages, "wrong evictions": c.WrongEvictions, "pattern hits": c.PatternHits,
		"snapshots": c.Snapshots, "snapshot bytes": c.SnapshotBytes,
	} {
		if v == 0 {
			t.Errorf("%s count is zero; the small sweep no longer loads that layer", name)
		}
	}
}

// TestTracedServeCountsRepeat: two traced serve passes of one seed give
// identical counts (jobs, checkpoints, store ops and bytes) and digests.
func TestTracedServeCountsRepeat(t *testing.T) {
	var runs []*tracedPass
	for i := 0; i < 2; i++ {
		p, err := runServePass(smallServe, 3, t.TempDir(), newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 0 || len(p.mismatch) != 0 {
			t.Fatalf("pass %d: %d failed ops, %d hit mismatches", i, p.failed, len(p.mismatch))
		}
		runs = append(runs, servedTrace(p))
	}
	a, b := runs[0], runs[1]
	if a.counts != b.counts {
		t.Fatalf("serve counts differ between runs:\n%+v\n%+v", a.counts, b.counts)
	}
	if !reflect.DeepEqual(a.digests, b.digests) {
		t.Fatalf("served digests differ between runs:\n%v\n%v", a.digests, b.digests)
	}
	c := a.counts
	if c.Jobs != 3 || c.Checkpoints == 0 || c.SnapshotBytes == 0 || c.StoreWriteOps == 0 || c.StoreReadOps == 0 {
		t.Fatalf("serve counts miss a layer: %+v", c)
	}
}

// TestServedBytesMatchSweep: a key simulated behind the service returns the
// same bytes as the same key in a Warm sweep.
func TestServedBytesMatchSweep(t *testing.T) {
	sw, err := runSweepPass(workloadDef{name: "x", scale: 0.25, warps: 64, keys: smallServe.keys}, serveSessionSeed)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := runServePass(smallServe, 3, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareDigests("served vs sweep", sw.digests, sv.digests); err != nil {
		t.Fatal(err)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   github.com/reproductions/cppe/internal/engine.(*Engine).popRing (inline)
             github.com/reproductions/cppe/internal/engine.(*Engine).Run
-----------+-------------------------------------------------------
      10ms   runtime.asyncPreempt
             github.com/reproductions/cppe/internal/tlb.(*TLB).Insert
             github.com/reproductions/cppe/internal/uvm.(*Manager).translate
-----------+-------------------------------------------------------
      40ms   runtime.mallocgc
             github.com/reproductions/cppe/internal/serve/fsfault.osFS.WriteFile
-----------+-------------------------------------------------------
      10ms   encoding/json.(*encodeState).marshal
-----------+-------------------------------------------------------
      10ms   github.com/reproductions/cppe/internal/workload.(*Benchmark).Generate
             github.com/reproductions/cppe/internal/workload.(*Cache).Get
-----------+-------------------------------------------------------
      10ms   github.com/reproductions/cppe/internal/harness.(*Session).Warm
-----------+-------------------------------------------------------
      10ms   github.com/reproductions/cppe/internal/core.Setup.NewPolicy
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"engine": 0.25, "tlb": 1.0 / 12, "runtime": 1.0 / 3, "other": 1.0 / 6, "sweep": 1.0 / 12, "policy": 1.0 / 12}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for l, w := range want {
		if d := got[l] - w; d > 1e-9 || d < -1e-9 {
			t.Fatalf("shares %v, want %v", got, want)
		}
	}
	// The reported shares, every cpuLayers entry plus other, cover every
	// sample.
	v := layerValues(&tracedPass{shares: got}, time.Second, time.Second)
	var total float64
	for _, m := range perLayer {
		if strings.HasSuffix(m.name, ".cpu_share") {
			total += v[m.name]
		}
	}
	if d := total - 1; d > 1e-9 || d < -1e-9 {
		t.Fatalf("reported cpu shares sum to %v, want 1", total)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/reproductions/cppe/internal/serve/fsfault.osFS.WriteFile": "serve",
		"github.com/reproductions/cppe/internal/sm.NewMachine.func5":          "sm",
		"github.com/reproductions/cppe/internal/harness.(*Session).Warm":      "sweep",
		"github.com/reproductions/cppe/internal/sweep.(*Driver).Run":          "sweep",
		"github.com/reproductions/cppe/internal/core.Setup.NewPolicy":         "policy",
		"github.com/reproductions/cppe/internal/workload.(*Cache).Get":        "other",
		"github.com/reproductions/cppe/internal/memdef.Cycle.String":          "other",
		"github.com/reproductions/cppe.ResultJSON":                            "other",
		"runtime/internal/atomic.Load":                                        "runtime",
		"runtime.gcBgMarkWorker":                                              "runtime",
		"main.warmRows.func1":                                                 "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCapacityForMirrorsHarness pins the capacity rounding the traced
// rebuild mirrors against the harness's own results.
func TestCapacityForMirrorsHarness(t *testing.T) {
	p, err := runSweepPass(smallSweep, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range smallSweep.keys() {
		r := p.sess.Harness().Run(k)
		if got := capacityFor(r.FootprintPages, k.OversubPct); got != r.CapacityPages {
			t.Errorf("%v: capacityFor = %d, harness used %d", k, got, r.CapacityPages)
		}
	}
}
