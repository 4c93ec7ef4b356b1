package harness

import (
	"fmt"
	"runtime/debug"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/sweep"
)

// This file is the shared-trace lockstep execution path behind Session.Warm.
//
// One group = every missing key of one benchmark. The group's machines are
// built over the session's single memoized trace (zero-copy fan-out) and
// advanced together in fixed cycle-epoch batches by a sweep.Driver, so all of
// them consume the same trace region at roughly the same time. Pausing and
// resuming at epoch boundaries is the same mechanism checkpointed runs use
// (engine.PauseAt fires every event at or before the boundary before
// stopping), so a lockstep run retires exactly the same events in exactly the
// same order as a solo Run — the golden byte-diff and the determinism
// regression test pin this equivalence.
//
// Stats follow the delta-commit discipline: each lane folds its per-epoch
// progress into the worker's private stats.SweepShard (O(1), no shared
// state), and the shard commits to the session's shared aggregate only at
// epoch boundaries; results likewise commit to the shared cache once per
// group, not once per run.

// lane adapts one built simulation to the lockstep driver.
type lane struct {
	s     *Session
	key   Key
	slot  int // index into the group's result slice
	b     *built
	shard *stats.SweepShard
	prev  sm.Progress
	res   Result
	// panicked marks a lane whose machine panicked: its machine is dropped
	// rather than returned to the session's free list.
	panicked bool
}

// Advance runs the lane's machine up to the epoch boundary, accumulating the
// epoch's progress delta into the worker's shard. A panic inside the machine
// crashes only this lane, mirroring runOne's per-run isolation.
func (ln *lane) Advance(until memdef.Cycle) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			ln.res = Result{
				Key:     ln.key,
				Crashed: true,
				Err:     fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack()),
			}
			ln.panicked = true
			done = true
		}
	}()
	res, paused := ln.b.machine.RunUntil(ln.s.cfg.MaxEvents, until)
	cur := ln.b.machine.Progress()
	delta := stats.SweepDelta{
		Cycles:        uint64(cur.Cycles - ln.prev.Cycles),
		Accesses:      cur.Accesses - ln.prev.Accesses,
		Faults:        cur.Driver.FaultEvents - ln.prev.Driver.FaultEvents,
		MigratedPages: cur.Driver.MigratedPages - ln.prev.Driver.MigratedPages,
		EvictedPages:  cur.Driver.EvictedPages - ln.prev.Driver.EvictedPages,
	}
	ln.prev = cur
	if paused {
		ln.shard.Add(delta)
		return false
	}
	delta.Runs = 1
	ln.shard.Add(delta)
	ln.res = ln.s.collect(ln.key, ln.b, res)
	return true
}

// buildRecover is build with runOne's panic isolation: a panic during
// workload generation or machine assembly becomes this key's error instead of
// killing the whole group.
func (s *Session) buildRecover(k Key) (b *built, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack())
		}
	}()
	return s.build(k)
}

// runGroup executes one benchmark's keys as a lockstep sweep and returns one
// Result per key (same order). The caller commits them to the cache.
func (s *Session) runGroup(keys []Key) []Result {
	shard := s.sweepAgg.Shard()
	results := make([]Result, len(keys))
	lanes := make([]sweep.Lane, 0, len(keys))
	group := make([]*lane, 0, len(keys))
	for i, k := range keys {
		b, err := s.buildRecover(k)
		if err != nil {
			results[i] = Result{Key: k, Crashed: true, Err: err}
			continue
		}
		ln := &lane{s: s, key: k, slot: i, b: b, shard: shard}
		lanes = append(lanes, ln)
		group = append(group, ln)
	}
	drv := sweep.Driver{
		Epoch:   s.cfg.SweepEpoch,
		OnEpoch: func(memdef.Cycle) { shard.Commit() },
	}
	drv.Run(lanes)
	shard.Commit() // safety net; the driver's final OnEpoch already drained it
	for _, ln := range group {
		results[ln.slot] = ln.res
		if !ln.panicked {
			s.machines.put(ln.b.machine)
		}
	}
	return results
}
