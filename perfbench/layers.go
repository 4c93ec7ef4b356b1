package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// perLayer lists every per-layer metric with its unit, in the order of the
// layer table: each is read from a module's Stats(), timed around a call
// into the layer's public functions, or bucketed from the CPU profile of the
// traced pass. Counts are sums over the pass; *_ms host times are totals
// over the pass for sweep layers and per-request medians for serve routes;
// *.cpu_share is the layer's share of flat CPU samples. A layer a workload
// bypasses reads zero there: that is its no-change prediction. On
// serve-mixed some simulator numbers also read zero because they cannot be
// seen from outside the service (see servedTrace).
var perLayer = []struct{ name, unit string }{
	{"workload.gen_ms", "ms"},
	{"workload.trace_mb", "MB"},
	{"harness.build_ms", "ms"},
	{"harness.build_alloc_mb", "MB"},
	{"harness.run_ms", "ms"},
	{"sweep.cpu_share", "ratio"},
	{"engine.events", "count"},
	{"engine.ns_per_event", "ns"},
	{"engine.cpu_share", "ratio"},
	{"sm.accesses", "count"},
	{"sm.stall_cycles", "cycles"},
	{"sm.cpu_share", "ratio"},
	{"cache.l1_hits", "count"},
	{"cache.l1_misses", "count"},
	{"cache.l2_hits", "count"},
	{"cache.l2_misses", "count"},
	{"cache.cpu_share", "ratio"},
	{"tlb.l1_hits", "count"},
	{"tlb.l2_hits", "count"},
	{"tlb.misses", "count"},
	{"tlb.shootdowns", "count"},
	{"tlb.cpu_share", "ratio"},
	{"ptw.walks", "count"},
	{"ptw.pwc_hit_ratio", "ratio"},
	{"ptw.mem_reads", "count"},
	{"ptw.cpu_share", "ratio"},
	{"pagetable.cpu_share", "ratio"},
	{"uvm.fault_events", "count"},
	{"uvm.merged_faults", "count"},
	{"uvm.migrated_pages", "count"},
	{"uvm.evicted_pages", "count"},
	{"uvm.cpu_share", "ratio"},
	{"dram.reads", "count"},
	{"dram.writes", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"dram.cpu_share", "ratio"},
	{"xbus.h2d_mb", "MB"},
	{"xbus.d2h_mb", "MB"},
	{"xbus.cpu_share", "ratio"},
	{"evict.wrong_evictions", "count"},
	{"evict.cpu_share", "ratio"},
	{"policy.cpu_share", "ratio"},
	{"prefetch.pattern_hit_ratio", "ratio"},
	{"prefetch.cpu_share", "ratio"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.decode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.cpu_share", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.ckpts_per_job", "count"},
	{"serve.http_submit_ms", "ms"},
	{"serve.http_result_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.cpu_share", "ratio"},
	{"store.write_ops", "count"},
	{"store.write_mb", "MB"},
	{"store.write_ms", "ms"},
	{"store.read_ops", "count"},
	{"store.read_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.cpu_share", "ratio"},
	{"other.cpu_share", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.span_overhead_s", "s"},
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerValues derives the per-layer metric values of one traced pass.
// trace.overhead_s is its wall time minus the untraced pass's; on the sweeps
// that difference also holds the traced driver's own checkpoint work, so
// trace.span_overhead_s is its wall time minus spanBase, the same driver's
// with no spans recorded.
func layerValues(p *tracedPass, untracedWall, spanBase time.Duration) map[string]float64 {
	c := p.counts
	v := map[string]float64{
		"workload.trace_mb":          float64(c.TraceBytes) / 1e6,
		"engine.events":              float64(c.Events),
		"sm.accesses":                float64(c.Accesses),
		"sm.stall_cycles":            float64(c.StallCycles),
		"cache.l1_hits":              float64(c.L1Hits),
		"cache.l1_misses":            float64(c.L1Misses),
		"cache.l2_hits":              float64(c.L2Hits),
		"cache.l2_misses":            float64(c.L2Misses),
		"tlb.l1_hits":                float64(c.TLBL1Hits),
		"tlb.l2_hits":                float64(c.TLBL2Hits),
		"tlb.misses":                 float64(c.TLBMisses),
		"tlb.shootdowns":             float64(c.TLBShootdowns),
		"ptw.walks":                  float64(c.Walks),
		"ptw.pwc_hit_ratio":          ratio(c.PWCHits, c.PWCHits+c.PWCMisses),
		"ptw.mem_reads":              float64(c.WalkMemReads),
		"uvm.fault_events":           float64(c.FaultEvents),
		"uvm.merged_faults":          float64(c.MergedFaults),
		"uvm.migrated_pages":         float64(c.MigratedPages),
		"uvm.evicted_pages":          float64(c.EvictedPages),
		"dram.reads":                 float64(c.DRAMReads),
		"dram.writes":                float64(c.DRAMWrites),
		"dram.row_hit_ratio":         ratio(c.RowHits, c.RowHits+c.RowMisses),
		"xbus.h2d_mb":                float64(c.H2DBytes) / 1e6,
		"xbus.d2h_mb":                float64(c.D2HBytes) / 1e6,
		"evict.wrong_evictions":      float64(c.WrongEvictions),
		"prefetch.pattern_hit_ratio": ratio(c.PatternMatches, c.PatternHits),
		"snapshot.bytes":             float64(c.SnapshotBytes),
		"serve.ckpts_per_job":        ratio(c.Checkpoints, c.Jobs),
		"serve.rejected":             float64(c.Rejected),
		"serve.retries":              float64(c.Retries),
		"store.write_ops":            float64(c.StoreWriteOps),
		"store.write_mb":             float64(c.StoreWriteBytes) / 1e6,
		"store.read_ops":             float64(c.StoreReadOps),
		"trace.overhead_s":           (p.wall - untracedWall).Seconds(),
		"trace.overhead_frac":        (p.wall - untracedWall).Seconds() / untracedWall.Seconds(),
		"trace.span_overhead_s":      (p.wall - spanBase).Seconds(),
	}
	for k, x := range p.host {
		v[k] = x
	}
	if p.prof != nil {
		v["runtime.gc_cpu_frac"] = p.prof.gcCPUFrac
		v["runtime.heap_peak_mb"] = p.prof.heapPeakM
	}
	for _, l := range cpuLayers {
		v[l+".cpu_share"] = p.shares[l]
	}
	v["other.cpu_share"] = p.shares["other"]
	return v
}

// tracePair is one untraced pass and the traced pass run right after it.
// spanBaseWall is the traced pass's driver run with no spans recorded: on
// the sweeps a rebuild with a nil tracer, on serve the untraced pass itself.
type tracePair struct {
	untracedWall      time.Duration
	spanBaseWall      time.Duration
	untracedDigests   map[string]string
	attempted, failed int // over both passes
	traced            *tracedPass
	tr                *tracer
	notes             []string // correctness findings of the pair
}

// traceRuns repeats pair for the measuring budget (at least once) and
// assembles the per-layer report. Every pass must give the same digests and
// every traced pass the same per-layer counts; host times and the tracing
// overhead (traced minus untraced sweep_wall_s) are medians over the pairs.
// The first traced pass's spans become the Chrome trace. prof is the CPU
// profile behind the layer shares (nil: the first traced pass's own).
func traceRuns(opt options, e env, b *budget, prof *profiler, base string, pair func(i int) (*tracePair, error)) (*report, error) {
	var pairs []*tracePair
	for b.more() {
		start := time.Now()
		pp, err := pair(len(pairs))
		if err != nil {
			return nil, err
		}
		b.done(start)
		pairs = append(pairs, pp)
	}
	first := pairs[0]
	rep := &report{env: e, out: outcome{Correct: true}, digests: first.untracedDigests}
	rep.env.Reps = len(pairs)
	fail := func(msg string) {
		rep.out.Correct = false
		rep.notes = append(rep.notes, "correctness: "+msg)
	}
	var untracedS, spanBaseS, tracedS []float64
	hosts := map[string][]float64{}
	for i, pp := range pairs {
		rep.out.Attempted += pp.attempted
		rep.out.Failed += pp.failed
		for _, n := range pp.notes {
			fail(n)
		}
		if err := compareDigests("traced vs untraced", first.untracedDigests, pp.traced.digests); err != nil {
			fail(err.Error())
		}
		if err := compareDigests("repetition", first.untracedDigests, pp.untracedDigests); err != nil {
			fail(err.Error())
		}
		if pp.traced.counts != first.traced.counts {
			fail(fmt.Sprintf("per-layer counts of traced pass %d differ from pass 0", i))
		}
		untracedS = append(untracedS, pp.untracedWall.Seconds())
		spanBaseS = append(spanBaseS, pp.spanBaseWall.Seconds())
		tracedS = append(tracedS, pp.traced.wall.Seconds())
		for k, v := range pp.traced.host {
			hosts[k] = append(hosts[k], v)
		}
	}
	if prof == nil {
		prof = first.traced.prof
	}
	shares, err := cpuShares(prof.path)
	if err != nil {
		return nil, err
	}
	untracedWall := time.Duration(median(untracedS) * float64(time.Second))
	spanBase := time.Duration(median(spanBaseS) * float64(time.Second))
	agg := &tracedPass{
		wall:   time.Duration(median(tracedS) * float64(time.Second)),
		counts: first.traced.counts,
		host:   map[string]float64{},
		prof:   prof,
		shares: shares,
	}
	for k, vs := range hosts {
		agg.host[k] = median(vs)
	}
	tracePath := filepath.Join(opt.out, "trace-"+base+".json")
	if err := first.tr.write(tracePath, rep.env); err != nil {
		return nil, err
	}
	v := layerValues(agg, untracedWall, spanBase)
	rep.out.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		rep.out.Metrics[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("tracing overhead: traced %.3fs - untraced %.3fs = %+.3fs sweep_wall_s (medians of %d pairs)",
			agg.wall.Seconds(), untracedWall.Seconds(), (agg.wall-untracedWall).Seconds(), len(pairs)),
		fmt.Sprintf("span overhead: traced %.3fs - same driver without spans %.3fs = %+.3fs",
			agg.wall.Seconds(), spanBase.Seconds(), (agg.wall-spanBase).Seconds()),
		"chrome trace: "+tracePath,
		"cpu profile: "+prof.path)
	return rep, nil
}
