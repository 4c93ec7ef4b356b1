package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/harness"
)

// endToEnd lists every end-to-end metric with its unit. Every workload
// reports all of them, with tracing off:
//
//   - setup_s: session (and, for serve, server) construction; for the sweeps
//     also trace generation, since Warm reuses the memoized traces;
//   - sweep_wall_s, jobs_per_s: one pass over the workload's grid (serve: the
//     whole closed-loop schedule) and its simulations per second;
//   - allocs_per_run, alloc_mb_per_run: heap allocations during the pass per
//     simulation run (serve: per fresh job, HTTP and store included);
//   - peak_rss_mb: the process's peak resident set;
//   - job_p50_ms, job_p90_ms: sweeps: one benchmark row of the grid, timed
//     around its Session.Warm call; serve: a fresh submit until its result
//     bytes arrive;
//   - hit_p50_ms, hit_p90_ms: re-requesting a finished key: sweeps: the
//     cached Session.Run, read back the way the repository's experiment
//     tables do after Warm (one goroutine, every key in grid order), one
//     sample per hitBatch rounds of the grid, their time per read; serve: a
//     cached POST plus GET of the result bytes;
//   - disk_mb_per_job: sweeps: the size of each run's canonical
//     cppe.ResultJSON rendering, since a sweep itself writes nothing (this is
//     not program I/O); serve: store writes plus checkpoint bytes per fresh
//     job.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sweep_wall_s", "s"},
	{"jobs_per_s", "1/s"},
	{"allocs_per_run", "count"},
	{"alloc_mb_per_run", "MB"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"disk_mb_per_job", "MB"},
}

// extraSetups is how many set-ups a sweep run times beyond one per pass.
const extraSetups = 4

// hitSamples is how many hit samples a sweep pass takes, and hitBatch how
// many rounds of the grid one sample times. One cached Session.Run takes
// under a microsecond, too little to time alone; timed over a batch of
// rounds, a sample is not moved much by one interrupt.
const hitSamples, hitBatch = 100, 20

// samples pools one workload's per-repetition measurements.
type samples struct {
	setupS, wallS, allocs, allocMB, diskMB []float64
	rssMB                                  []float64
	jobMS, hitMS                           []float64
	runs                                   int // simulations per pass
}

func (s *samples) metrics() map[string]metric {
	wall := median(s.wallS)
	v := map[string]float64{
		"setup_s":          median(s.setupS),
		"sweep_wall_s":     wall,
		"jobs_per_s":       float64(s.runs) / wall,
		"allocs_per_run":   median(s.allocs),
		"alloc_mb_per_run": median(s.allocMB),
		"peak_rss_mb":      median(s.rssMB),
		"job_p50_ms":       quantile(s.jobMS, 0.5),
		"job_p90_ms":       quantile(s.jobMS, 0.9),
		"hit_p50_ms":       quantile(s.hitMS, 0.5),
		"hit_p90_ms":       quantile(s.hitMS, 0.9),
		"disk_mb_per_job":  median(s.diskMB),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

func (s *samples) note() string {
	return fmt.Sprintf("samples: reps=%d setup=%d job=%d hit=%d runs/pass=%d", len(s.wallS), len(s.setupS), len(s.jobMS), len(s.hitMS), s.runs)
}

// sweepPass is one repetition of a sweep workload.
type sweepPass struct {
	sess    *cppe.Session
	setup   time.Duration
	wall    time.Duration
	rowMS   []float64
	hitMS   []float64
	allocs  uint64
	allocB  uint64
	diskB   int
	failed  int
	digests map[string]string
}

// newSweepSession builds a fresh session and generates every trace of the
// grid (one per benchmark) through the public JobID call, which memoizes it.
func newSweepSession(w workloadDef, seed int64, groups [][]harness.Key) (*cppe.Session, error) {
	sess := cppe.NewSession(cppe.Options{Scale: w.scale, Warps: w.warps, Seed: seed, Parallelism: runtime.NumCPU()})
	for _, g := range groups {
		if _, err := sess.JobID(request(g[0])); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// eachRow calls fn for rows 0..n-1 from par workers that pull rows in
// order, and returns once every call has. tid is the worker's 1-based index.
func eachRow(n, par int, fn func(r, tid int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= par; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := int(next.Add(1)) - 1; r < n; r = int(next.Add(1)) - 1 {
				fn(r, tid)
			}
		}(w)
	}
	wg.Wait()
}

// warmRows runs the grid through Session.Warm, one call per benchmark row,
// from par workers pulling rows in grid order — the same groups, order and
// concurrency as one Warm call over the whole grid, but with each row's
// latency observable from outside. It returns each row's wall time in ms.
func warmRows(h *harness.Session, groups [][]harness.Key, par int) []float64 {
	rowMS := make([]float64, len(groups))
	eachRow(len(groups), par, func(r, _ int) {
		t := time.Now()
		h.Warm(groups[r])
		rowMS[r] = ms(time.Since(t))
	})
	return rowMS
}

// runSweepPass sets up a fresh session, sweeps the grid, digests every
// key's rendered result, and times the cached read-back (the "hit" path).
func runSweepPass(w workloadDef, seed int64) (*sweepPass, error) {
	keys := w.keys()
	groups := rows(keys)
	t0 := time.Now()
	sess, err := newSweepSession(w, seed, groups)
	if err != nil {
		return nil, err
	}
	p := &sweepPass{sess: sess, setup: time.Since(t0), digests: make(map[string]string, len(keys))}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	p.rowMS = warmRows(sess.Harness(), groups, runtime.NumCPU())
	p.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.allocB = m1.TotalAlloc - m0.TotalAlloc

	for _, k := range keys {
		res, err := sess.Run(request(k))
		if err != nil {
			return nil, err
		}
		if res.Err != nil {
			p.failed++
		}
		data, err := cppe.ResultJSON(res)
		if err != nil {
			return nil, err
		}
		p.digests[k.String()] = digest(data)
		p.diskB += len(data)
	}
	// Read the results back from a settled heap, as a user does once the
	// sweep has returned, so the hit path is not timed behind the sweep's
	// garbage collection.
	runtime.GC()
	if p.hitMS, err = timeHits(sess, keys); err != nil {
		return nil, err
	}
	return p, nil
}

// timeHits reads every result back on one goroutine with Session.Run in
// grid order, hitSamples batches of hitBatch rounds, and returns each
// batch's time per read.
func timeHits(sess *cppe.Session, keys []harness.Key) ([]float64, error) {
	reqs := make([]cppe.Request, len(keys))
	for i, k := range keys {
		reqs[i] = request(k)
	}
	out := make([]float64, 0, hitSamples)
	for i := 0; i < hitSamples; i++ {
		t := time.Now()
		for r := 0; r < hitBatch; r++ {
			for _, q := range reqs {
				if _, err := sess.Run(q); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, ms(time.Since(t))/float64(hitBatch*len(reqs)))
	}
	return out, nil
}

// measureSweep repeats sweep passes, each on a fresh session, for the
// measuring budget, and reports medians over the passes.
func measureSweep(w workloadDef, opt options, e env) (*report, error) {
	runs := len(w.keys())
	s := &samples{runs: runs}
	rep := &report{env: e, out: outcome{Correct: true}}
	b := newBudget(opt.seconds, 3, 200)
	for b.more() {
		start := time.Now()
		startPeakRSS()
		p, err := runSweepPass(w, opt.seed)
		if err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, peakRSSMB())
		b.done(start)
		s.setupS = append(s.setupS, p.setup.Seconds())
		s.wallS = append(s.wallS, p.wall.Seconds())
		s.allocs = append(s.allocs, float64(p.allocs)/float64(runs))
		s.allocMB = append(s.allocMB, float64(p.allocB)/float64(runs)/1e6)
		s.diskMB = append(s.diskMB, float64(p.diskB)/float64(runs)/1e6)
		s.jobMS = append(s.jobMS, p.rowMS...)
		s.hitMS = append(s.hitMS, p.hitMS...)
		rep.out.Attempted += runs
		rep.out.Failed += p.failed
		if rep.digests == nil {
			rep.digests = p.digests
		} else if err := compareDigests("repetition", rep.digests, p.digests); err != nil {
			rep.out.Correct = false
			rep.notes = append(rep.notes, "correctness: "+err.Error())
		}
	}
	// More set-ups, without a sweep after them, so the set-up median rests
	// on more samples than there are passes. Like each pass's own, they
	// start from a collected heap.
	groups := rows(w.keys())
	for i := 0; i < extraSetups; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := newSweepSession(w, opt.seed, groups); err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t).Seconds())
	}
	rep.env.Reps = len(s.wallS)
	rep.notes = append(rep.notes, s.note())
	rep.out.Metrics = s.metrics()
	return rep, nil
}
