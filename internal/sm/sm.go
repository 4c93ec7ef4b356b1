// Package sm models the GPU's streaming multiprocessors and composes the full
// simulated machine (SMs + MMU + caches + DRAM + interconnect + UVM driver).
//
// Each SM runs a set of warps; each warp is an independent stream of
// post-coalesced global-memory accesses. A warp issues its next access a
// fixed compute gap after the previous one completes. When an access far
// faults, only that warp stalls (replayable far faults); the SM — and the
// whole GPU — keeps executing other warps. This is the execution-model
// abstraction the paper's fault-overhead analysis relies on: with page faults
// costing ~28,000 cycles, pipeline detail below the warp level is noise.
//
// The per-access pipeline is allocation-free on the hot path: each warp has
// exactly one access in flight, so its stage callbacks are built once at
// construction and carry their state in warp fields; the shared L2/DRAM path
// pools its request contexts the same way.
package sm

import (
	"errors"
	"fmt"
	"time"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/cache"
	"github.com/reproductions/cppe/internal/dram"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/inject"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/xbus"
)

// Snapshot tag kinds for SM-scheduled events (engine.Tag.A carries the
// operand: a warp's global index or a memory-request registry ID).
const (
	// TagWarpStep issues warp A's next access after the compute gap.
	TagWarpStep uint16 = 0x0101
	// TagWarpL1 is warp A's post-translation L1 data-cache probe.
	TagWarpL1 uint16 = 0x0102
	// TagWarpFin is warp A's data-access completion (the done callback its
	// L2/DRAM request carries).
	TagWarpFin uint16 = 0x0103
	// TagWarpXlat is the link tag naming warp A's translated callback; it
	// never appears in the event queue (the MMU invokes the callback
	// directly) but re-links in-flight translations on restore.
	TagWarpXlat uint16 = 0x0104
	// TagMemL2 is request A's L2 probe on the shared data path.
	TagMemL2 uint16 = 0x0105
)

// memReq is one pooled request context for the shared L2/DRAM path: the
// callback closure is created once per node and reads its operands from the
// node, so a request costs no allocation after the pool warms up. Contexts
// carry a stable registry ID so in-flight requests can be serialized by ID
// and re-linked on checkpoint restore (see snapshot.go).
type memReq struct {
	mp     *memPath
	id     uint64
	active bool
	a      memdef.VirtAddr
	kind   memdef.AccessKind
	tag    engine.Tag // the caller's serializable description of done
	done   func()
	run    func()
	next   *memReq
}

// memPath is the shared L2-cache + DRAM data path, used by SM data accesses
// (after their private L1) and by the page-table walker.
type memPath struct {
	eng *engine.Engine
	cfg memdef.Config
	l2  *cache.Cache
	// dram is the backing memory; reqs is the request registry indexed by
	// memReq.id, free the chain of inactive contexts.
	dram *dram.DRAM
	reqs []*memReq
	free *memReq
}

// newReq registers a request context under the next registry ID: one kept
// from before the last reset, or a new one.
func (mp *memPath) newReq() *memReq {
	id := len(mp.reqs)
	if id < cap(mp.reqs) {
		if rq := mp.reqs[:id+1][id]; rq != nil {
			mp.reqs = mp.reqs[:id+1]
			return rq
		}
	}
	rq := &memReq{mp: mp, id: uint64(id)}
	rq.run = rq.l2Stage
	mp.reqs = append(mp.reqs, rq)
	return rq
}

// reset empties the request registry, keeping its contexts for newReq to
// hand out again in ID order.
func (mp *memPath) reset() {
	for _, rq := range mp.reqs {
		rq.active, rq.a, rq.kind, rq.tag, rq.done, rq.next = false, 0, 0, engine.Tag{}, nil, nil
	}
	mp.reqs = mp.reqs[:0]
	mp.free = nil
}

// Access implements ptw.MemAccessor: L2 lookup, then DRAM on a miss. tag
// describes done and rides along to whatever completion event is scheduled.
func (mp *memPath) Access(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, done func()) {
	rq := mp.free
	if rq == nil {
		rq = mp.newReq()
	} else {
		mp.free = rq.next
		rq.next = nil
	}
	rq.active = true
	rq.a, rq.kind, rq.tag, rq.done = a, kind, tag, done
	mp.eng.ScheduleTagged(mp.cfg.L2HitLatency, engine.Tag{Kind: TagMemL2, A: rq.id}, rq.run)
}

// l2Stage performs the L2 probe (and DRAM access on a miss). It copies its
// operands out and releases the node first, so re-entrant Access calls from
// the completion callback can reuse it.
func (rq *memReq) l2Stage() {
	mp, a, kind, tag, done := rq.mp, rq.a, rq.kind, rq.tag, rq.done
	rq.done = nil
	rq.tag = engine.Tag{}
	rq.active = false
	rq.next = mp.free
	mp.free = rq
	res := mp.l2.Access(a, kind)
	if res.WritebackVictim {
		// Dirty victim drains to DRAM off the critical path (no completion
		// callback, so no event and no tag).
		mp.dram.Access(a, memdef.Write, nil)
	}
	if res.Hit {
		done()
		return
	}
	mp.dram.AccessT(a, kind, tag, done)
}

// Warp is one in-flight access stream.
type warp struct {
	id    memdef.WarpID
	gid   uint64 // index into Machine.allWarps, the ScheduleArg handle
	sm    *SM
	trace []memdef.Access
	pos   int

	// In-flight access state (one access outstanding per warp), read by the
	// per-warp stage callbacks below, which are built once per warp object
	// (see newWarp) and survive Reset.
	acc   memdef.Access
	issue memdef.Cycle

	translated func() // MMU translation done -> start the data access
	l1Stage    func() // L1 data-cache probe, after the L1 hit latency
	finished   func() // data access complete -> account and schedule next step
}

// SM is one streaming multiprocessor.
type SM struct {
	id      memdef.SMID
	machine *Machine
	l1      *cache.Cache
	warps   []*warp

	accessesDone uint64
	stallCycles  memdef.Cycle
}

// Machine is the complete simulated GPU attached to a host over PCIe.
type Machine struct {
	Eng  *engine.Engine
	Cfg  memdef.Config
	L2   *cache.Cache
	DRAM *dram.DRAM
	Link *xbus.Link
	MMU  *uvm.Manager
	SMs  []*SM

	mp          *memPath
	allWarps    []*warp
	stepWarp    func(uint64) // shared ScheduleArg trampoline: allWarps[g].step()
	activeWarps int
	started     bool // warps seeded: a restored machine must not reseed

	aud *audit.Auditor
	inj *inject.Injector
}

// NewMachine builds the full system with the given eviction policy and
// prefetcher, and loads one trace per warp. Traces beyond
// NumSMs x WarpsPerSM panic; missing traces just leave warps idle.
func NewMachine(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Access) *Machine {
	if err := checkInputs(cfg, traces); err != nil {
		panic(err)
	}
	eng := engine.New()
	l2 := cache.New("l2", cfg.L2CacheBytes, cfg.L2CacheWays, cfg.L2CacheLineSz)
	dr := dram.New(eng, cfg)
	link := xbus.New(eng, cfg)
	mp := &memPath{eng: eng, cfg: cfg, l2: l2, dram: dr}
	mmu := uvm.New(eng, cfg, link, pol, pf, mp)

	m := &Machine{Eng: eng, Cfg: cfg, L2: l2, DRAM: dr, Link: link, MMU: mmu, mp: mp}
	m.stepWarp = func(g uint64) { m.allWarps[g].step() }
	for i := 0; i < cfg.NumSMs; i++ {
		s := &SM{
			id:      memdef.SMID(i),
			machine: m,
			l1:      cache.New(fmt.Sprintf("l1-sm%d", i), cfg.L1CacheBytes, cfg.L1CacheWays, cfg.L1CacheLineSz),
		}
		m.SMs = append(m.SMs, s)
	}
	m.arm()
	m.load(traces)
	return m
}

// ErrGeometry reports a Reset whose configuration differs from the
// machine's construction configuration in more than MemoryPages and the
// audit/chaos knobs: the machine's arrays do not fit it, so the caller must
// build a new machine.
var ErrGeometry = errors.New("sm: configuration does not fit the machine")

// Reset returns a used machine to the exact state NewMachine(cfg, pol, pf,
// traces) would build, keeping every array it owns: caches, TLBs, the
// engine's queue and node pool, DRAM banks, the link, walker and
// translation contexts, page-table nodes, chunk states, and warps with their
// stage callbacks. The previous run may have ended in any state (finished,
// aborted, out of event budget, or paused). cfg may differ from the
// construction configuration only in MemoryPages, AuditEveryCycles and
// ChaosSeed — the auditor and injector are re-created here — and policy,
// prefetcher and traces are free; anything else returns ErrGeometry and
// leaves the machine untouched.
func (m *Machine) Reset(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Access) error {
	if err := checkInputs(cfg, traces); err != nil {
		return err
	}
	if geometry(cfg) != geometry(m.Cfg) {
		return ErrGeometry
	}
	m.Cfg = cfg
	m.Eng.Reset()
	m.L2.Reset()
	m.DRAM.Reset()
	m.Link.Reset()
	m.mp.reset()
	m.MMU.Reset(cfg, pol, pf)
	for _, s := range m.SMs {
		s.l1.Reset()
		clear(s.warps)
		s.warps = s.warps[:0]
		s.accessesDone, s.stallCycles = 0, 0
	}
	m.unload()
	m.activeWarps = 0
	m.started = false
	m.aud, m.inj = nil, nil
	m.arm()
	m.load(traces)
	return nil
}

// Release drops the machine's references to its traces, policy and
// prefetcher, so a machine kept for reuse does not pin them in memory. The
// machine must be Reset before it runs again.
func (m *Machine) Release() {
	m.unload()
	m.MMU.Release()
}

// checkInputs validates a build's configuration and trace count.
func checkInputs(cfg memdef.Config, traces [][]memdef.Access) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if maxWarps := cfg.NumSMs * cfg.WarpsPerSM; len(traces) > maxWarps {
		return fmt.Errorf("sm: %d traces exceed %d warps", len(traces), maxWarps)
	}
	return nil
}

// geometry is cfg with the fields Reset may change zeroed.
func geometry(cfg memdef.Config) memdef.Config {
	cfg.MemoryPages, cfg.AuditEveryCycles, cfg.ChaosSeed = 0, 0, 0
	return cfg
}

// arm attaches a fresh integrity auditor and fault injector when the
// configuration asks for them.
func (m *Machine) arm() {
	if m.Cfg.AuditEveryCycles > 0 {
		// Integrity auditing: periodic full-state checks run between events
		// (read-only, so they never perturb event ordering or results).
		aud := audit.New()
		aud.SetClock(m.Eng.Now)
		m.MMU.AttachAuditor(aud)
		m.Eng.SetPeriodic(m.Cfg.AuditEveryCycles, func() {
			if aud.CheckNow("periodic") > 0 {
				// Fail-stop: end the run with the structured violation
				// instead of simulating corrupted state to completion.
				m.MMU.Abort(aud.Err())
			}
		})
		m.aud = aud
	}
	if m.Cfg.ChaosSeed != 0 {
		inj := inject.New(inject.Defaults(m.Cfg.ChaosSeed))
		m.MMU.SetInjector(inj)
		m.inj = inj
	}
}

// load assigns one trace per warp, round-robin across SMs so a workload's
// parallelism spreads over the machine the way a real grid would. Empty
// traces leave their warp idle.
func (m *Machine) load(traces [][]memdef.Access) {
	for wi, tr := range traces {
		if len(tr) == 0 {
			continue
		}
		s := m.SMs[wi%m.Cfg.NumSMs]
		w := m.newWarp()
		w.id, w.sm, w.trace = memdef.WarpID(wi), s, tr
		w.pos, w.acc, w.issue = 0, memdef.Access{}, 0
		s.warps = append(s.warps, w)
		m.activeWarps++
	}
}

// unload empties the warp table, dropping every warp's trace reference. The
// warp objects stay in the table's backing array for newWarp.
func (m *Machine) unload() {
	for _, w := range m.allWarps {
		w.trace = nil
	}
	m.allWarps = m.allWarps[:0]
}

// newWarp registers a warp under the next global index: one kept from
// before the last Reset, or a new one with its stage callbacks. The
// callbacks read the warp's fields (its SM included), so a kept warp serves
// any SM.
func (m *Machine) newWarp() *warp {
	gid := len(m.allWarps)
	if gid < cap(m.allWarps) {
		if w := m.allWarps[:gid+1][gid]; w != nil {
			m.allWarps = m.allWarps[:gid+1]
			return w
		}
	}
	w := &warp{gid: uint64(gid)}
	w.translated = func() {
		m.Eng.ScheduleTagged(m.Cfg.L1HitLatency, engine.Tag{Kind: TagWarpL1, A: w.gid}, w.l1Stage)
	}
	w.l1Stage = func() {
		res := w.sm.l1.Access(w.acc.Addr, w.acc.Kind)
		if res.WritebackVictim {
			m.DRAM.Access(w.acc.Addr, memdef.Write, nil)
		}
		if res.Hit {
			w.finished()
			return
		}
		m.mp.Access(w.acc.Addr, w.acc.Kind, engine.Tag{Kind: TagWarpFin, A: w.gid}, w.finished)
	}
	w.finished = func() {
		w.sm.accessesDone++
		w.sm.stallCycles += m.Eng.Now() - w.issue
		m.Eng.ScheduleArgTagged(m.Cfg.ComputeGapCycles, engine.Tag{Kind: TagWarpStep, A: w.gid}, m.stepWarp, w.gid)
	}
	m.allWarps = append(m.allWarps, w)
	return w
}

// SetFootprint forwards the application footprint to the thrash detector.
func (m *Machine) SetFootprint(pages int) { m.MMU.SetFootprint(pages) }

// Auditor returns the integrity auditor, or nil when auditing is disabled
// (Cfg.AuditEveryCycles == 0).
func (m *Machine) Auditor() *audit.Auditor { return m.aud }

// Injector returns the armed fault injector, or nil when chaos is disabled
// (Cfg.ChaosSeed == 0).
func (m *Machine) Injector() *inject.Injector { return m.inj }

// SetWatchdog arms the engine's no-progress watchdog (see engine.SetWatchdog)
// for the next Run. window <= 0 disarms it.
func (m *Machine) SetWatchdog(window time.Duration) { m.Eng.SetWatchdog(window, 0) }

// Result summarizes one simulation.
type Result struct {
	// Cycles is the total execution time in core cycles.
	Cycles memdef.Cycle
	// Crashed is true when the thrash detector aborted the run (the modeled
	// equivalent of the paper's baseline crashes) or the event budget blew.
	Crashed bool
	// Accesses is the total completed memory accesses.
	Accesses uint64
	// Err is the structured failure of the run, if any: a typed driver error
	// (uvm.ErrNoVictim, uvm.ErrFaultService), an engine livelock error
	// (engine.ErrBudget, engine.ErrNoProgress), or the first integrity
	// violation (*audit.IntegrityError). Nil for clean runs — including
	// thrash aborts, which are a modeled outcome, not a failure.
	Err error
}

// Run executes the machine to completion and returns the result. maxEvents
// bounds runaway simulations (0 = a generous default).
func (m *Machine) Run(maxEvents uint64) Result {
	m.Eng.ClearPause()
	res, _ := m.run(maxEvents)
	return res
}

// RunUntil executes until the machine finishes or every event at cycles <=
// pauseAt has fired, whichever comes first. paused reports that the machine
// stopped at the pause boundary — a consistent checkpointable state — and the
// accompanying Result is an intermediate reading, not a final one.
func (m *Machine) RunUntil(maxEvents uint64, pauseAt memdef.Cycle) (res Result, paused bool) {
	m.Eng.PauseAt(pauseAt)
	defer m.Eng.ClearPause()
	return m.run(maxEvents)
}

func (m *Machine) run(maxEvents uint64) (Result, bool) {
	if maxEvents == 0 {
		maxEvents = 2_000_000_000
	}
	m.Eng.SetEventBudget(maxEvents)
	if !m.started {
		m.started = true
		// SM-major order: each SM's warps are seeded back-to-back, preserving
		// the deterministic same-cycle FIFO order the golden results were
		// pinned with.
		for _, s := range m.SMs {
			for _, w := range s.warps {
				m.Eng.ScheduleArgTagged(0, engine.Tag{Kind: TagWarpStep, A: w.gid}, m.stepWarp, w.gid)
			}
		}
	}
	_, err := m.Eng.Run(func() bool { return m.MMU.Aborted() })
	if err == engine.ErrPaused {
		return Result{Cycles: m.Eng.Now()}, true
	}
	if m.aud != nil {
		// Close the audit window: catch corruption introduced after the last
		// periodic tick. Read-only, so clean results are unchanged.
		m.aud.CheckNow("final")
	}
	var accesses uint64
	for _, s := range m.SMs {
		accesses += s.accessesDone
	}
	res := Result{
		Cycles:   m.Eng.Now(),
		Crashed:  m.MMU.Aborted() || err == engine.ErrBudget,
		Accesses: accesses,
	}
	// Failure priority: typed driver failures, then engine livelock errors,
	// then the first integrity violation.
	res.Err = m.MMU.Failure()
	if res.Err == nil && err != nil {
		res.Err = err
	}
	if res.Err == nil && m.aud != nil {
		res.Err = m.aud.Err()
	}
	if res.Err != nil {
		res.Crashed = true
	}
	return res, false
}

// step issues the warp's next access, or retires the warp.
func (w *warp) step() {
	if w.pos >= len(w.trace) {
		w.sm.machine.activeWarps--
		return
	}
	w.acc = w.trace[w.pos]
	w.pos++
	w.issue = w.sm.machine.Eng.Now()
	w.sm.machine.MMU.TranslateT(w.sm.id, w.acc, engine.Tag{Kind: TagWarpXlat, A: w.gid}, w.translated)
}

// ActiveWarps returns the number of warps that have not retired.
func (m *Machine) ActiveWarps() int { return m.activeWarps }

// Progress is a cheap cumulative reading of the machine's sweep-progress
// counters: the current clock, completed accesses, and the driver-level
// traffic counters. The lockstep sweep driver subtracts consecutive readings
// to get per-epoch deltas for its sharded stats commits, so reading must stay
// O(SMs), never O(events).
type Progress struct {
	Cycles   memdef.Cycle
	Accesses uint64
	Driver   uvm.Progress
}

// Progress returns the machine's current cumulative progress reading.
func (m *Machine) Progress() Progress {
	var accesses uint64
	for _, s := range m.SMs {
		accesses += s.accessesDone
	}
	return Progress{
		Cycles:   m.Eng.Now(),
		Accesses: accesses,
		Driver:   m.MMU.Progress(),
	}
}

// SMStats is per-SM accounting.
type SMStats struct {
	ID           memdef.SMID
	AccessesDone uint64
	StallCycles  memdef.Cycle
	L1Cache      cache.Stats
}

// SMStats returns the per-SM statistics.
func (m *Machine) SMStats() []SMStats {
	out := make([]SMStats, 0, len(m.SMs))
	for _, s := range m.SMs {
		out = append(out, SMStats{
			ID:           s.id,
			AccessesDone: s.accessesDone,
			StallCycles:  s.stallCycles,
			L1Cache:      s.l1.Stats(),
		})
	}
	return out
}
