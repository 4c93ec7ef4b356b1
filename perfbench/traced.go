package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
	"unsafe"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/core"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
)

// ckptEvery is cppe-serve's default checkpoint cadence in simulated cycles;
// the traced sweep snapshots and restores every lane at the same cadence so
// the codec's cost is measured at the rate the service pays it.
const ckptEvery = memdef.Cycle(1 << 21)

// counts are the deterministic per-layer work counts of one traced pass:
// for a given seed they repeat exactly, run after run.
type counts struct {
	Events, Accesses, StallCycles                    uint64
	L1Hits, L1Misses, L2Hits, L2Misses               uint64
	TLBL1Hits, TLBL2Hits, TLBMisses, TLBShootdowns   uint64
	Walks, PWCHits, PWCMisses, WalkMemReads          uint64
	FaultEvents, MergedFaults, MigratedPages         uint64
	EvictedPages                                     uint64
	DRAMReads, DRAMWrites, RowHits, RowMisses        uint64
	H2DBytes, D2HBytes                               uint64
	WrongEvictions, PatternHits, PatternMatches      uint64
	Snapshots, SnapshotBytes                         uint64
	StoreWriteOps, StoreWriteBytes, StoreReadOps     uint64
	TraceBytes, Jobs, Checkpoints, Rejected, Retries uint64
}

func (c *counts) add(o counts) {
	a := reflect.ValueOf(c).Elem()
	b := reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() + b.Field(i).Uint())
	}
}

// machineCounts reads every module's Stats() off a finished machine.
func machineCounts(m *sm.Machine, pol evict.Policy, pf prefetch.Prefetcher) counts {
	var c counts
	c.Events = m.Eng.Fired()
	for _, s := range m.SMStats() {
		c.Accesses += s.AccessesDone
		c.StallCycles += uint64(s.StallCycles)
		c.L1Hits += s.L1Cache.Hits
		c.L1Misses += s.L1Cache.Misses
	}
	l2 := m.L2.Stats()
	c.L2Hits, c.L2Misses = l2.Hits, l2.Misses
	tl1, tl2 := m.MMU.TLBStats()
	c.TLBL1Hits, c.TLBL2Hits, c.TLBMisses = tl1.Hits, tl2.Hits, tl2.Misses
	c.TLBShootdowns = tl1.Shootdowns + tl2.Shootdowns
	w := m.MMU.WalkerStats()
	c.Walks, c.PWCHits, c.PWCMisses, c.WalkMemReads = w.Walks, w.PWCHits, w.PWCMisses, w.MemReads
	u := m.MMU.Stats()
	c.FaultEvents, c.MergedFaults = u.FaultEvents, u.MergedFaults
	c.MigratedPages, c.EvictedPages = u.MigratedPages, u.EvictedPages
	d := m.DRAM.Stats()
	c.DRAMReads, c.DRAMWrites, c.RowHits, c.RowMisses = d.Reads, d.Writes, d.RowHits, d.RowMisses
	x := m.Link.Stats()
	c.H2DBytes, c.D2HBytes = x.BytesH2D, x.BytesD2H
	switch p := pol.(type) {
	case *evict.MHPE:
		c.WrongEvictions = p.Stats().WrongEvictions
	case *policy.Learned:
		c.WrongEvictions = p.Stats().WrongEvictions
	}
	if p, ok := pf.(*prefetch.Pattern); ok {
		st := p.Stats()
		c.PatternHits, c.PatternMatches = st.Hits, st.Matches
	}
	return c
}

// recipe rebuilds one key's machine from the public constructors exactly as
// harness.Session.buildChecked does: the memoized trace, capacityFor's
// chunk-aligned capacity, the policy seed Seed^len(bench)^0x5eed, the
// footprint and the watchdog.
type recipe struct {
	cfg   harness.Config
	setup core.Setup
	gen   *workload.Generated
	sys   memdef.Config
	seed  int64
}

type machineSet struct {
	m   *sm.Machine
	pol evict.Policy
	pf  prefetch.Prefetcher
}

// capacityFor mirrors the harness's derivation of GPU memory capacity in
// pages from the footprint and the oversubscription percentage.
func capacityFor(footprintPages, pct int) int {
	if pct <= 0 {
		return 0
	}
	pages := footprintPages * pct / 100
	pages -= pages % memdef.ChunkPages
	if min := 8 * memdef.ChunkPages; pages < min {
		pages = min
	}
	return pages
}

func newRecipe(h *harness.Session, traces *workload.Cache, k harness.Key) (*recipe, error) {
	bench, ok := workload.ByAbbr(k.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", k.Bench)
	}
	setup, err := h.ResolveSetup(k.Setup)
	if err != nil {
		return nil, err
	}
	cfg := h.Config()
	gen := traces.Get(bench, workload.Options{
		Scale: cfg.Scale, Warps: cfg.Warps, AccessesPerPage: cfg.AccessesPerPage, Seed: cfg.Seed,
	})
	sys := cfg.Base
	sys.MemoryPages = capacityFor(gen.FootprintPages, k.OversubPct)
	return &recipe{cfg: cfg, setup: setup, gen: gen, sys: sys, seed: cfg.Seed ^ int64(len(k.Bench)) ^ 0x5eed}, nil
}

func (r *recipe) build() (*machineSet, error) {
	pol, err := r.setup.NewPolicy(r.sys, r.seed)
	if err != nil {
		return nil, err
	}
	pf, err := r.setup.NewPrefetcher(r.sys)
	if err != nil {
		return nil, err
	}
	m := sm.NewMachine(r.sys, pol, pf, r.gen.Warps)
	m.SetFootprint(r.gen.FootprintPages)
	m.SetWatchdog(r.cfg.WatchdogWindow)
	return &machineSet{m: m, pol: pol, pf: pf}, nil
}

// layerTimes accumulates host time per traced layer across lanes.
type layerTimes struct {
	buildNS, runNS, encodeNS, decodeNS atomic.Int64
}

// tracedLane drives one rebuilt key through the lockstep loop,
// pausing additionally at every checkpoint boundary to snapshot the machine
// and continue on a fresh machine restored from the snapshot — the path a
// served job takes when it resumes.
type tracedLane struct {
	key   harness.Key
	rec   *recipe
	ms    *machineSet
	next  memdef.Cycle
	res   sm.Result
	snaps uint64
	bytes uint64
	tr    *tracer
	times *layerTimes
	tid   int
	err   error
}

func (ln *tracedLane) advance(until memdef.Cycle) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			ln.err = fmt.Errorf("panic in %v: %v\n%s", ln.key, r, debug.Stack())
			done = true
		}
	}()
	id := ln.key.String()
	for {
		target, snap := until, false
		if ln.next <= until {
			target, snap = ln.next, true
		}
		t := time.Now()
		res, paused := ln.ms.m.RunUntil(ln.rec.cfg.MaxEvents, target)
		d := time.Since(t)
		ln.times.runNS.Add(int64(d))
		ln.tr.span("sm", "run", id, "row", ln.tid, t, d)
		if !paused {
			ln.res = res
			return true
		}
		if !snap {
			return false
		}
		if err := ln.checkpoint(id); err != nil {
			ln.err = err
			return true
		}
		ln.next = ln.ms.m.Eng.Now() + ckptEvery
		if target == until {
			return false
		}
	}
}

// checkpoint snapshots the lane's machine and swaps in a freshly built one
// restored from the snapshot.
func (ln *tracedLane) checkpoint(id string) error {
	t := time.Now()
	blob, err := ln.ms.m.Snapshot()
	d := time.Since(t)
	ln.times.encodeNS.Add(int64(d))
	ln.tr.span("snapshot", "snapshot", id, "run", ln.tid, t, d)
	if err != nil {
		return fmt.Errorf("snapshot %v: %w", ln.key, err)
	}
	ln.snaps++
	ln.bytes += uint64(len(blob))
	// The fresh machine's construction is traced but kept out of
	// harness.build_ms, which counts the sweep's own builds only.
	t = time.Now()
	fresh, err := ln.rec.build()
	ln.tr.span("harness", "build", id, "restore", ln.tid, t, time.Since(t))
	if err != nil {
		return fmt.Errorf("restore %v: %w", ln.key, err)
	}
	t = time.Now()
	err = fresh.m.Restore(blob)
	d = time.Since(t)
	ln.times.decodeNS.Add(int64(d))
	ln.tr.span("snapshot", "restore", id, "run", ln.tid, t, d)
	if err != nil {
		return fmt.Errorf("restore %v: %w", ln.key, err)
	}
	if got, want := fresh.m.Eng.Now(), ln.ms.m.Eng.Now(); got != want {
		return fmt.Errorf("restore %v: clock %d, snapshot taken at %d", ln.key, got, want)
	}
	ln.ms = fresh
	return nil
}

// lockstep advances lanes in cycle-epoch batches the way sweep.Driver runs
// Warm's lanes: every live lane reaches the epoch boundary before any moves
// past it. (The benchmark keeps its own loop because its lanes read the wall
// clock, which the simulation-core driver must never reach.)
func lockstep(lanes []*tracedLane, epoch memdef.Cycle) {
	const maxCycle = memdef.Cycle(1<<63 - 1)
	boundary := epoch
	if epoch <= 0 {
		boundary = maxCycle
	}
	live := append([]*tracedLane(nil), lanes...)
	for len(live) > 0 {
		next := live[:0]
		for _, ln := range live {
			if !ln.advance(boundary) {
				next = append(next, ln)
			}
		}
		live = next
		if boundary >= maxCycle-epoch {
			boundary = maxCycle
		} else {
			boundary += epoch
		}
	}
}

// tracedKey is one rebuilt key's outcome.
type tracedKey struct {
	key    harness.Key
	res    cppe.Result
	uvm    uvm.Stats
	counts counts
}

// tracedSweep rebuilds every key of the grid from the public constructors,
// row by row on par workers (as warmRows does), each row advanced in
// lockstep with the session's epoch.
type tracedSweep struct {
	h      *harness.Session
	traces *workload.Cache
	tr     *tracer
	times  layerTimes
	genNS  int64
	traceB uint64
}

// generate memoizes every row's trace up front (the sweep's set-up) under a
// "generate" span per benchmark.
func (ts *tracedSweep) generate(groups [][]harness.Key) error {
	for _, g := range groups {
		t := time.Now()
		rec, err := newRecipe(ts.h, ts.traces, g[0])
		if err != nil {
			return err
		}
		d := time.Since(t)
		ts.genNS += int64(d)
		ts.tr.span("workload", "generate", g[0].Bench, "setup", 0, t, d)
		n := 0
		for _, w := range rec.gen.Warps {
			n += len(w)
		}
		ts.traceB += uint64(n) * uint64(unsafe.Sizeof(memdef.Access{}))
	}
	return nil
}

func (ts *tracedSweep) row(keys []harness.Key, tid int) ([]tracedKey, error) {
	t0 := time.Now()
	lanes := make([]*tracedLane, 0, len(keys))
	for _, k := range keys {
		rec, err := newRecipe(ts.h, ts.traces, k)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		ms, err := rec.build()
		d := time.Since(t)
		ts.times.buildNS.Add(int64(d))
		ts.tr.span("harness", "build", k.String(), "row", tid, t, d)
		if err != nil {
			return nil, fmt.Errorf("build %v: %w", k, err)
		}
		ln := &tracedLane{key: k, rec: rec, ms: ms, next: ckptEvery, tr: ts.tr, times: &ts.times, tid: tid}
		lanes = append(lanes, ln)
	}
	lockstep(lanes, ts.h.Config().SweepEpoch)
	ts.tr.span("sweep", "row", keys[0].Bench, "", tid, t0, time.Since(t0))
	out := make([]tracedKey, 0, len(lanes))
	for _, ln := range lanes {
		if ln.err != nil {
			return nil, ln.err
		}
		m := ln.ms.m
		u := m.MMU.Stats()
		res := cppe.Result{
			Request: request(ln.key), Cycles: uint64(ln.res.Cycles), Crashed: ln.res.Crashed, Err: ln.res.Err,
			Accesses: ln.res.Accesses, FaultEvents: u.FaultEvents, MigratedPages: u.MigratedPages,
			EvictedPages: u.EvictedPages, FootprintPages: ln.rec.gen.FootprintPages, CapacityPages: ln.rec.sys.MemoryPages,
		}
		c := machineCounts(m, ln.ms.pol, ln.ms.pf)
		c.Snapshots, c.SnapshotBytes = ln.snaps, ln.bytes
		out = append(out, tracedKey{key: ln.key, res: res, uvm: u, counts: c})
	}
	return out, nil
}

// run sweeps all groups on par workers and returns every key's outcome in
// grid order.
func (ts *tracedSweep) run(groups [][]harness.Key, par int) ([]tracedKey, error) {
	results := make([][]tracedKey, len(groups))
	errs := make([]error, len(groups))
	eachRow(len(groups), par, func(r, tid int) {
		results[r], errs[r] = ts.row(groups[r], tid)
	})
	var out []tracedKey
	for i := range groups {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}

// buildAllocMB measures heap bytes allocated per machine build, building
// each key once more on one goroutine with nothing else running.
func (ts *tracedSweep) buildAllocMB(keys []harness.Key) (float64, error) {
	var m0, m1 runtime.MemStats
	var total uint64
	for _, k := range keys {
		rec, err := newRecipe(ts.h, ts.traces, k)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m0)
		if _, err := rec.build(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		total += m1.TotalAlloc - m0.TotalAlloc
	}
	return float64(total) / float64(len(keys)) / 1e6, nil
}

// tracedPass is the outcome of one traced pass of any workload.
type tracedPass struct {
	wall    time.Duration
	counts  counts
	digests map[string]string
	failed  int
	host    map[string]float64 // host-time per-layer metrics
	prof    *profiler
	shares  map[string]float64
}

// traceSweepPass runs the traced rebuild of a sweep workload against an
// untraced pass's session: every key's Cycles, Accesses, crash outcome and
// UVM stats must equal what Session.Warm produced.
func traceSweepPass(w workloadDef, seed int64, untraced *sweepPass, tr *tracer) (*tracedPass, error) {
	keys := w.keys()
	groups := rows(keys)
	h := untraced.sess.Harness()
	if h.Config().Seed != seed {
		return nil, errors.New("traced pass: session seed mismatch")
	}
	ts := &tracedSweep{h: h, traces: workload.NewCache(), tr: tr}
	if err := ts.generate(groups); err != nil {
		return nil, err
	}
	t0 := time.Now()
	out, err := ts.run(groups, runtime.NumCPU())
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	p := &tracedPass{wall: wall, digests: make(map[string]string, len(out))}
	var mirror []string
	for _, tk := range out {
		data, err := cppe.ResultJSON(tk.res)
		if err != nil {
			return nil, err
		}
		p.digests[tk.key.String()] = digest(data)
		if tk.res.Err != nil {
			p.failed++
		}
		want := h.Run(tk.key)
		if want.Cycles != memdef.Cycle(tk.res.Cycles) || want.Accesses != tk.res.Accesses ||
			want.Crashed != tk.res.Crashed || !reflect.DeepEqual(want.UVM, tk.uvm) {
			mirror = append(mirror, tk.key.String())
		}
		p.counts.add(tk.counts)
	}
	if len(mirror) > 0 {
		return nil, fmt.Errorf("traced rebuild differs from Session.Warm on %d keys, first %s", len(mirror), mirror[0])
	}
	p.counts.TraceBytes = ts.traceB
	p.counts.Jobs = uint64(len(out))
	buildMB, err := ts.buildAllocMB(keys)
	if err != nil {
		return nil, err
	}
	runMS := float64(ts.times.runNS.Load()) / 1e6
	p.host = map[string]float64{
		"workload.gen_ms":        float64(ts.genNS) / 1e6,
		"harness.build_ms":       float64(ts.times.buildNS.Load()) / 1e6,
		"harness.build_alloc_mb": buildMB,
		"harness.run_ms":         runMS,
		"snapshot.encode_ms":     float64(ts.times.encodeNS.Load()) / 1e6,
		"snapshot.decode_ms":     float64(ts.times.decodeNS.Load()) / 1e6,
	}
	if p.counts.Events > 0 {
		p.host["engine.ns_per_event"] = runMS * 1e6 / float64(p.counts.Events)
	}
	return p, nil
}

// profileSeconds is the least wall time a sweep's CPU profile spans.
const profileSeconds = 3

// traceSweep is --trace 1 for a sweep workload: Warm passes under the CPU
// profile (layer shares of the program's own path), then pairs of an
// untraced pass (the overhead baseline) and the traced rebuild, each pair
// with a rebuild that records no spans in between (the span-cost baseline).
func traceSweep(w workloadDef, opt options, e env) (*report, error) {
	b := newBudget(opt.seconds, 1, 200)
	base := fmt.Sprintf("%s-seed%d", w.name, opt.seed)
	prof, err := startProfile(filepath.Join(opt.out, "cpu-"+base+".pprof"))
	if err != nil {
		return nil, err
	}
	// Profile whole Warm passes until the profile spans profileSeconds, so
	// small layers collect enough samples.
	var profiled []*sweepPass
	for t := time.Now(); err == nil && (len(profiled) == 0 || time.Since(t) < profileSeconds*time.Second); {
		var pp *sweepPass
		if pp, err = runSweepPass(w, opt.seed); err == nil {
			profiled = append(profiled, pp)
		}
	}
	if ferr := prof.finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	rep, err := traceRuns(opt, e, b, prof, base, func(int) (*tracePair, error) {
		untraced, err := runSweepPass(w, opt.seed)
		if err != nil {
			return nil, err
		}
		spanBase, err := traceSweepPass(w, opt.seed, untraced, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		p, err := traceSweepPass(w, opt.seed, untraced, tr)
		if err != nil {
			return nil, err
		}
		var notes []string
		if err := compareDigests("spanless rebuild vs untraced", untraced.digests, spanBase.digests); err != nil {
			notes = append(notes, err.Error())
		}
		return &tracePair{
			untracedWall: untraced.wall, spanBaseWall: spanBase.wall, untracedDigests: untraced.digests,
			attempted: len(untraced.digests) + len(spanBase.digests) + len(p.digests),
			failed:    untraced.failed + spanBase.failed + p.failed,
			traced:    p, tr: tr, notes: notes,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pp := range profiled {
		if err := compareDigests("profiled vs untraced", rep.digests, pp.digests); err != nil {
			rep.out.Correct = false
			rep.notes = append(rep.notes, "correctness: "+err.Error())
		}
		rep.out.Attempted += len(pp.digests)
		rep.out.Failed += pp.failed
	}
	return rep, nil
}
