package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/serve"
	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// hitsPerFresh is how many cached hits each client runs after each fresh job.
const hitsPerFresh = 10

// serveExtraSetups is how many server starts a serve-mixed run times after
// each pass beyond the pass's own. Starting a server is sub-millisecond
// work, so the set-up median rests on many more starts than there are
// passes. Each start begins from a collected heap, as a fresh cppe-serve
// process does, so the pass's garbage is not collected on its clock.
const serveExtraSetups = 3

// serveCheckpointEvery is serve-mixed's checkpoint cadence in simulated
// cycles: twice the shipped 1<<21. At the shipped cadence about a third of
// the jobs run past a second checkpoint, whose rename over the first makes
// ext4 write the file out (its replace-via-rename flush), so each such job
// waits on the disk. On a shared disk that wait moved a pass's wall time by
// up to half between runs of the same code. At this cadence a job seldom
// writes a second checkpoint, its one checkpoint is removed before it
// reaches the disk, and snapshot encoding still runs in the job path.
const serveCheckpointEvery = 1 << 22

// serveSessionSeed is the session seed of every serve-mixed server: the
// benchmark's --seed sets only the op order and the hit choices, so every
// seed simulates the same results, and the committed reference checks them.
const serveSessionSeed = referenceSeed

// serveInstr instruments a server from outside, through the seams its
// Config already offers: a serve.Runner wrapper (queue wait, run time,
// checkpoint count and bytes), an fsfault.FS wrapper (store ops, over the
// in-memory memFS) and a Server.Handler wrapper (per-route time). Byte and
// op counts and store times are always kept; the other host times and spans
// only when tr is non-nil.
type serveInstr struct {
	inner   serve.Runner
	ckptDir string
	mem     *memFS
	tr      *tracer

	mu        sync.Mutex
	admitted  map[string]time.Time // job ID -> first JobID call (admission)
	generated map[string]bool      // benchmarks whose trace exists
	genNS     int64
	queueMS   []float64
	runMS     []float64
	submitMS  []float64
	resultMS  []float64
	sims      counts

	ckpts, ckptBytes              atomic.Uint64
	writeOps, writeBytes, readOps atomic.Uint64
	writeNS, readNS               atomic.Int64
}

func newServeInstr(inner serve.Runner, tr *tracer) *serveInstr {
	return &serveInstr{inner: inner, tr: tr, mem: newMemFS(), admitted: map[string]time.Time{}, generated: map[string]bool{}}
}

// instrRunner is the serve.Runner face of serveInstr.
type instrRunner struct{ in *serveInstr }

// JobID also times admission: the session generates (and memoizes) a
// benchmark's trace inside the first JobID call that names it, so those
// calls are the service's trace generation.
func (r instrRunner) JobID(req serve.Request) (string, error) {
	start := time.Now()
	id, err := r.in.inner.JobID(req)
	if err != nil || r.in.tr == nil {
		return id, err
	}
	d := time.Since(start)
	r.in.mu.Lock()
	defer r.in.mu.Unlock()
	if _, ok := r.in.admitted[id]; !ok {
		r.in.admitted[id] = time.Now()
	}
	if !r.in.generated[req.Benchmark] {
		r.in.generated[req.Benchmark] = true
		r.in.genNS += int64(d)
		r.in.tr.span("workload", "generate", req.Benchmark, "submit", 0, start, d)
	}
	return id, err
}

func (r instrRunner) Run(req serve.Request, ckptPath string, every uint64, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	in := r.in
	id := strings.TrimSuffix(filepath.Base(ckptPath), ".ckpt")
	start := time.Now()
	tap := func(cycle uint64) {
		in.ckpts.Add(1)
		if fi, err := os.Stat(ckptPath); err == nil {
			in.ckptBytes.Add(uint64(fi.Size()))
		}
		if progress != nil {
			progress(cycle)
		}
	}
	res, err := in.inner.Run(req, ckptPath, every, stop, tap)
	if in.tr == nil {
		return res, err
	}
	d := time.Since(start)
	in.tr.span("serve", "runner", id, "queue", 0, start, d)
	in.mu.Lock()
	if t, ok := in.admitted[id]; ok {
		in.queueMS = append(in.queueMS, ms(start.Sub(t)))
		in.tr.span("serve", "queue", id, "submit", 0, t, start.Sub(t))
	}
	in.runMS = append(in.runMS, ms(d))
	if err == nil {
		in.sims.Accesses += res.Accesses
		in.sims.FaultEvents += res.FaultEvents
		in.sims.MigratedPages += res.MigratedPages
		in.sims.EvictedPages += res.EvictedPages
	}
	in.mu.Unlock()
	return res, err
}

// instrFS is the fsfault.FS face of serveInstr. Store files live in the
// in-memory memFS (see there why). Paths
// under the checkpoint directory go to the OS uncounted: checkpoint bytes
// are measured at the runner (they bypass the FS seam today), so they are
// never counted twice if a later change routes them through it.
type instrFS struct{ in *serveInstr }

func (f instrFS) store(path string) bool {
	return f.in.ckptDir == "" || !strings.HasPrefix(path, f.in.ckptDir+string(os.PathSeparator))
}

// backing is the FS that holds path.
func (f instrFS) backing(path string) fsfault.FS {
	if f.store(path) {
		return f.in.mem
	}
	return fsfault.OS
}

func fileID(path string) string {
	base := filepath.Base(path)
	if i := strings.Index(base, "."); i >= 0 {
		base = base[:i]
	}
	return base
}

func (f instrFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if !f.store(name) {
		return fsfault.OS.WriteFile(name, data, perm)
	}
	t := time.Now()
	err := f.in.mem.WriteFile(name, data, perm)
	d := time.Since(t)
	f.in.writeOps.Add(1)
	f.in.writeBytes.Add(uint64(len(data)))
	f.in.writeNS.Add(int64(d))
	f.in.tr.span("store", "write", fileID(name), "", 0, t, d)
	return err
}

func (f instrFS) Rename(oldpath, newpath string) error {
	if !f.store(newpath) {
		return fsfault.OS.Rename(oldpath, newpath)
	}
	t := time.Now()
	err := f.in.mem.Rename(oldpath, newpath)
	d := time.Since(t)
	f.in.writeNS.Add(int64(d))
	f.in.tr.span("store", "rename", fileID(newpath), "write", 0, t, d)
	return err
}

func (f instrFS) ReadFile(name string) ([]byte, error) {
	if !f.store(name) {
		return fsfault.OS.ReadFile(name)
	}
	t := time.Now()
	data, err := f.in.mem.ReadFile(name)
	d := time.Since(t)
	f.in.readOps.Add(1)
	f.in.readNS.Add(int64(d))
	f.in.tr.span("store", "read", fileID(name), "", 0, t, d)
	return data, err
}

func (f instrFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.in.mem.MkdirAll(path, perm)
}
func (f instrFS) Remove(name string) error              { return f.backing(name).Remove(name) }
func (f instrFS) Stat(name string) (fs.FileInfo, error) { return f.backing(name).Stat(name) }
func (f instrFS) Glob(pattern string) ([]string, error) { return f.backing(pattern).Glob(pattern) }

// teeWriter keeps a copy of a (small) response body.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}

// handler times each request by route: submit (POST /v1/jobs) and result
// (GET /v1/jobs/{id}/result).
func (in *serveInstr) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			tw := &teeWriter{ResponseWriter: w}
			h.ServeHTTP(tw, r)
			d := time.Since(start)
			var sr serve.SubmitResponse
			_ = json.Unmarshal(tw.body.Bytes(), &sr) // best effort: only names the span
			in.tr.span("serve", "submit", sr.ID, "", 0, start, d)
			in.mu.Lock()
			in.submitMS = append(in.submitMS, ms(d))
			in.mu.Unlock()
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result"):
			h.ServeHTTP(w, r)
			d := time.Since(start)
			id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/result")
			in.tr.span("serve", "result", id, "", 0, start, d)
			in.mu.Lock()
			in.resultMS = append(in.resultMS, ms(d))
			in.mu.Unlock()
		default:
			h.ServeHTTP(w, r)
		}
	})
}

// serveClient is one closed-loop client of the service.
type serveClient struct {
	base string
	hc   *http.Client
	srv  *serve.Server
}

func (c *serveClient) submit(k harness.Key) (int, serve.SubmitResponse, error) {
	var sr serve.SubmitResponse
	body, err := json.Marshal(serve.Request{Benchmark: k.Bench, Setup: k.Setup, Oversubscription: k.OversubPct})
	if err != nil {
		return 0, sr, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, sr, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr, err
}

func (c *serveClient) result(id string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// fresh submits a never-run key and waits for its result bytes. ok is false
// for a failed job or any unexpected status.
func (c *serveClient) fresh(k harness.Key) (data []byte, ok bool) {
	code, sr, err := c.submit(k)
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		return nil, false
	}
	if j := c.srv.Job(sr.ID); j != nil {
		<-j.Done()
	}
	code, data, err = c.result(sr.ID)
	return data, err == nil && code == http.StatusOK
}

// hit re-submits a finished key, which must answer cached, and reads its
// result.
func (c *serveClient) hit(k harness.Key) (data []byte, ok bool) {
	code, sr, err := c.submit(k)
	if err != nil || code != http.StatusOK || !sr.Cached {
		return nil, false
	}
	code, data, err = c.result(sr.ID)
	return data, err == nil && code == http.StatusOK
}

// schedule deals the seeded permutation of the grid to the clients: client c
// submits keys c, c+n, c+2n, ... of it.
func schedule(keys []harness.Key, seed int64, clients int) [][]harness.Key {
	perm := rand.New(rand.NewSource(seed)).Perm(len(keys))
	out := make([][]harness.Key, clients)
	for i, p := range perm {
		out[i%clients] = append(out[i%clients], keys[p])
	}
	return out
}

// servePass is one repetition of serve-mixed.
type servePass struct {
	setup, wall       time.Duration
	jobMS, hitMS      []float64
	fresh, ops        int
	failed            int
	allocs, allocB    uint64
	diskB             uint64
	digests           map[string]string
	mismatch          []string
	in                *serveInstr
	rejected, retries uint64
}

// liveServer is one started service: a fresh state directory and session,
// the server with its instrumentation, and an httptest front end.
type liveServer struct {
	state string
	in    *serveInstr
	srv   *serve.Server
	hs    *httptest.Server
	hc    *http.Client
}

// startServer is serve-mixed's set-up: what an operator's start of
// cppe-serve does, in process, with the shipped defaults except the
// checkpoint cadence (serveCheckpointEvery) and an in-memory store (memFS),
// and with nproc workers.
func startServer(w workloadDef, dir string, tr *tracer) (*liveServer, error) {
	nproc := runtime.NumCPU()
	state, err := os.MkdirTemp(dir, "state-")
	if err != nil {
		return nil, err
	}
	sess := cppe.NewSession(cppe.Options{Scale: w.scale, Warps: w.warps, Seed: serveSessionSeed, Parallelism: nproc})
	in := newServeInstr(serve.SessionRunner(sess), tr)
	srv, err := serve.New(serve.Config{
		StateDir: state, Workers: nproc, CheckpointEvery: serveCheckpointEvery, Runner: instrRunner{in}, FS: instrFS{in},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(state)
		return nil, err
	}
	in.ckptDir = filepath.Dir(srv.Store().CheckpointPath("x"))
	srv.Start()
	h := srv.Handler()
	if tr != nil {
		h = in.handler(h)
	}
	return &liveServer{
		state: state, in: in, srv: srv, hs: httptest.NewServer(h),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}},
	}, nil
}

// close stops the front end and the workers (idle once the schedule is
// done) and removes the state directory.
func (ls *liveServer) close() error {
	ls.hc.CloseIdleConnections()
	ls.hs.Close()
	ls.srv.Drain()
	err := ls.srv.Shutdown(time.Minute)
	if rerr := os.RemoveAll(ls.state); err == nil {
		err = rerr
	}
	return err
}

// runServePass starts a fresh server, runs the whole seeded schedule from
// nproc closed-loop clients, and tears the server down.
func runServePass(w workloadDef, seed int64, dir string, tr *tracer) (p *servePass, err error) {
	nproc := runtime.NumCPU()
	keys := w.keys()
	t0 := time.Now()
	ls, err := startServer(w, dir, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ls.close(); err == nil && cerr != nil {
			p, err = nil, cerr
		}
	}()
	srv, hs, hc, in := ls.srv, ls.hs, ls.hc, ls.in
	p = &servePass{setup: time.Since(t0), digests: make(map[string]string, len(keys)), in: in}

	plan := schedule(keys, seed, nproc)
	type clientOut struct {
		jobMS, hitMS []float64
		ops, failed  int
		digests      map[string]string
		mismatch     []string
	}
	outs := make([]clientOut, nproc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serveClient{base: hs.URL, hc: hc, srv: srv}
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
			o := &outs[c]
			o.digests = map[string]string{}
			var done []harness.Key
			for _, k := range plan[c] {
				t := time.Now()
				data, ok := cl.fresh(k)
				o.ops++
				if !ok {
					o.failed++
					continue
				}
				o.jobMS = append(o.jobMS, ms(time.Since(t)))
				o.digests[k.String()] = digest(data)
				done = append(done, k)
				for i := 0; i < hitsPerFresh; i++ {
					hk := done[rng.Intn(len(done))]
					t := time.Now()
					data, ok := cl.hit(hk)
					o.ops++
					if !ok {
						o.failed++
						continue
					}
					o.hitMS = append(o.hitMS, ms(time.Since(t)))
					if d := digest(data); d != o.digests[hk.String()] {
						o.mismatch = append(o.mismatch, hk.String())
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	for _, o := range outs {
		p.jobMS = append(p.jobMS, o.jobMS...)
		p.hitMS = append(p.hitMS, o.hitMS...)
		p.ops += o.ops
		p.failed += o.failed
		p.mismatch = append(p.mismatch, o.mismatch...)
		for k, d := range o.digests {
			p.digests[k] = d
		}
	}
	p.fresh = len(keys)
	p.diskB = in.writeBytes.Load() + in.ckptBytes.Load()
	snap := srv.Counters().Snapshot()
	p.rejected, p.retries = snap.Rejected, snap.Retries
	return p, nil
}

// measureServe repeats serve-mixed passes for the measuring budget.
func measureServe(w workloadDef, opt options, e env) (*report, error) {
	dir, err := os.MkdirTemp(opt.out, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &samples{runs: len(w.keys())}
	rep := &report{env: e, out: outcome{Correct: true}}
	b := newBudget(opt.seconds, 3, 200)
	for b.more() {
		start := time.Now()
		startPeakRSS()
		p, err := runServePass(w, opt.seed, dir, nil)
		if err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, peakRSSMB())
		b.done(start)
		s.setupS = append(s.setupS, p.setup.Seconds())
		s.wallS = append(s.wallS, p.wall.Seconds())
		s.allocs = append(s.allocs, float64(p.allocs)/float64(p.fresh))
		s.allocMB = append(s.allocMB, float64(p.allocB)/float64(p.fresh)/1e6)
		s.diskMB = append(s.diskMB, float64(p.diskB)/float64(p.fresh)/1e6)
		s.jobMS = append(s.jobMS, p.jobMS...)
		s.hitMS = append(s.hitMS, p.hitMS...)
		rep.out.Attempted += p.ops
		rep.out.Failed += p.failed
		for _, n := range hitMismatch(p) {
			rep.out.Correct = false
			rep.notes = append(rep.notes, "correctness: "+n)
		}
		if rep.digests == nil {
			rep.digests = p.digests
		} else if err := compareDigests("repetition", rep.digests, p.digests); err != nil {
			rep.out.Correct = false
			rep.notes = append(rep.notes, "correctness: "+err.Error())
		}
		for i := 0; i < serveExtraSetups; i++ {
			runtime.GC()
			t := time.Now()
			ls, err := startServer(w, dir, nil)
			if err != nil {
				return nil, err
			}
			s.setupS = append(s.setupS, time.Since(t).Seconds())
			if err := ls.close(); err != nil {
				return nil, err
			}
		}
	}
	rep.env.Reps = len(s.wallS)
	rep.notes = append(rep.notes, s.note())
	rep.out.Metrics = s.metrics()
	return rep, nil
}

// hitMismatch reports cached hits whose bytes differed from the fresh
// result of the same key.
func hitMismatch(p *servePass) []string {
	if len(p.mismatch) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%d cached hits returned bytes differing from the fresh result, first %s", len(p.mismatch), p.mismatch[0])}
}

// traceServe is --trace 1 for serve-mixed: pairs of an untraced pass (the
// overhead baseline) and a traced pass with every wrapper timing and spans;
// the first traced pass also runs under the CPU profile.
func traceServe(w workloadDef, opt options, e env) (*report, error) {
	b := newBudget(opt.seconds, 1, 200)
	dir, err := os.MkdirTemp(opt.out, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := fmt.Sprintf("%s-seed%d", w.name, opt.seed)
	return traceRuns(opt, e, b, nil, base, func(i int) (*tracePair, error) {
		untraced, err := runServePass(w, opt.seed, dir, nil)
		if err != nil {
			return nil, err
		}
		var prof *profiler
		if i == 0 {
			if prof, err = startProfile(filepath.Join(opt.out, "cpu-"+base+".pprof")); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		p, err := runServePass(w, opt.seed, dir, tr)
		if prof != nil {
			if ferr := prof.finish(); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return nil, err
		}
		tp := servedTrace(p)
		tp.prof = prof
		return &tracePair{
			untracedWall: untraced.wall, spanBaseWall: untraced.wall, untracedDigests: untraced.digests,
			attempted: untraced.ops + p.ops, failed: untraced.failed + p.failed,
			traced: tp, tr: tr, notes: append(hitMismatch(untraced), hitMismatch(p)...),
		}, nil
	})
}

// servedTrace turns a traced serve pass into per-layer numbers. The
// simulator layers behind the service are observable only through each
// job's Result (accesses and the UVM fault, migration and eviction counts).
// Every other simulator number reads zero here although fresh jobs run
// those layers: the trace size, engine events and ns per event, SM stall
// cycles, the cache, TLB, walk, DRAM and link counts, merged faults, wrong
// evictions, the prefetch pattern hit ratio, and the build and snapshot
// codec times. Such a zero means
// unobservable, not bypassed; the layers' CPU shares still come from the
// profile. harness.run_ms is the total time inside the harness's resumable
// run (simulation plus checkpoint writes).
func servedTrace(p *servePass) *tracedPass {
	in := p.in
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.sims
	c.Jobs = uint64(p.fresh)
	c.Checkpoints = in.ckpts.Load()
	c.Snapshots = c.Checkpoints
	c.SnapshotBytes = in.ckptBytes.Load()
	c.StoreWriteOps = in.writeOps.Load()
	c.StoreWriteBytes = in.writeBytes.Load()
	c.StoreReadOps = in.readOps.Load()
	c.Rejected, c.Retries = p.rejected, p.retries
	return &tracedPass{
		wall:    p.wall,
		counts:  c,
		digests: p.digests,
		host: map[string]float64{
			"workload.gen_ms":      float64(in.genNS) / 1e6,
			"harness.run_ms":       sum(in.runMS),
			"serve.queue_wait_ms":  median(in.queueMS),
			"serve.run_ms":         median(in.runMS),
			"serve.http_submit_ms": median(in.submitMS),
			"serve.http_result_ms": median(in.resultMS),
			"store.write_ms":       float64(in.writeNS.Load()) / 1e6,
			"store.read_ms":        float64(in.readNS.Load()) / 1e6,
		},
	}
}
