// Package sweep advances several independent simulations over one shared
// trace in lockstep batches. All lanes (machines) are stepped to the same
// cycle-epoch boundary before any lane moves past it, so machines consuming
// the same workload walk the same trace region at roughly the same time and
// their hot state stays cache-resident; the driver's epoch boundaries are
// also where per-worker stats deltas commit to shared tables (see
// stats.SweepShard).
//
// The driver itself is deterministic and single-goroutine: lanes advance in
// registration order within every epoch, epochs are fixed simulated-cycle
// multiples, and each lane is an isolated event-driven simulation, so the
// batching changes wall-clock behaviour only. Concurrency, if any, lives in
// the caller (the harness runs one driver per worker).
package sweep

import "github.com/reproductions/cppe/internal/memdef"

// Lane is one simulation the driver advances. Advance runs the lane up to
// (and including) every event at or before `until`, returning true when the
// lane has finished and must not be advanced again. Implementations own their
// error handling: a failed lane simply reports done.
type Lane interface {
	Advance(until memdef.Cycle) (done bool)
}

// Driver advances a set of lanes in lockstep epochs.
type Driver struct {
	// Epoch is the lockstep batch length in simulated cycles. Every lane
	// reaches boundary N*Epoch before any lane starts on the next batch.
	// Zero disables batching: each lane runs to completion in one Advance
	// call (still in registration order).
	Epoch memdef.Cycle
	// OnEpoch, when non-nil, is invoked after every lane has reached the
	// boundary — the deterministic commit point for per-worker stats deltas.
	// It is also invoked once after the final epoch.
	OnEpoch func(boundary memdef.Cycle)
}

// maxCycle is the "run to completion" pause boundary.
const maxCycle = memdef.Cycle(1<<63 - 1)

// Run advances all lanes to completion and returns the number of epochs
// driven (at least one for a non-empty lane set).
func (d *Driver) Run(lanes []Lane) int {
	active := append([]Lane(nil), lanes...)
	epochs := 0
	boundary := d.Epoch
	if d.Epoch <= 0 {
		boundary = maxCycle
	}
	for len(active) > 0 {
		epochs++
		live := active[:0]
		for _, ln := range active {
			if !ln.Advance(boundary) {
				live = append(live, ln)
			}
		}
		// Drop finished lanes without retaining them in the backing array.
		for i := len(live); i < len(active); i++ {
			active[i] = nil
		}
		active = live
		if d.OnEpoch != nil {
			d.OnEpoch(boundary)
		}
		if boundary >= maxCycle-d.Epoch {
			boundary = maxCycle
		} else {
			boundary += d.Epoch
		}
	}
	return epochs
}
