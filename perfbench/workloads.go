package main

import (
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/workload"
)

// A workload is one named input set of the benchmark. The sweeps run a grid
// of simulation keys through Session.Warm; serve-mixed drives the same kind
// of grid through an in-process cppe-serve. Every workload takes the
// benchmark's --seed: for the sweeps it is the session seed (workload
// generation and policy seeding); for serve-mixed it is the seed of the op
// order and the hit choices, and the session seed is fixed
// (serveSessionSeed).
type workloadDef struct {
	name  string
	scale float64
	warps int
	keys  func() []harness.Key
	// serve selects the service workload instead of a Warm sweep.
	serve bool
}

// rates are the paper's Fig. 8 oversubscription settings (percent of the
// footprint that fits in GPU memory).
var rates = []int{75, 50}

// thrashBenches are the Type IV (thrashing) and Type V (repetitive
// thrashing) benchmarks of Table II.
var thrashBenches = []string{"SRD", "HSD", "MRQ", "STN", "HWL", "SGM", "HIS", "SPV"}

// thrashSetups are every eviction family the paper and the registry offer:
// LRU baseline, Random, reserved LRU, HPE, CPPE and the learned perceptron.
var thrashSetups = []string{"baseline", "random", "lru-10%", "hpe", "cppe", "learned"}

// fig9bSetups are the Fig. 9(b) systems.
var fig9bSetups = []string{"baseline", "random", "lru-10%", "lru-20%", "cppe"}

var workloads = []workloadDef{
	// fig8-sweep is the paper's headline experiment and the most common
	// user action: all 23 benchmarks x {baseline, cppe} x {75, 50}, 92
	// short runs (~14 ms, ~3.3M simulated cycles each). With many short
	// runs, machine construction, allocation/GC and the run loop carry
	// weight next to the per-access layers (engine, sm, cache, tlb, ptw,
	// uvm, dram, xbus, evict, prefetch). It bypasses snapshot, serve and
	// store: no checkpoints, no HTTP, no disk state.
	{
		name: "fig8-sweep", scale: 0.25, warps: 64,
		keys: func() []harness.Key {
			var keys []harness.Key
			for _, b := range workload.Abbrs() {
				for _, pct := range rates {
					keys = append(keys,
						harness.Key{Bench: b, Setup: "baseline", OversubPct: pct},
						harness.Key{Bench: b, Setup: "cppe", OversubPct: pct})
				}
			}
			return keys
		},
	},
	// thrash-policies runs the Type IV+V benchmarks under six eviction
	// policies at 40% capacity and full scale: 48 runs ~3.4x longer than
	// fig8's and eviction-heavy (~0.42 evicted pages per access against
	// ~0.32 in fig8), so the uvm fault path and the evict, policy and
	// prefetch layers dominate and construction is amortized. It is the
	// only workload that runs the random, reserved-LRU, HPE and learned
	// policies. It bypasses snapshot, serve and store.
	//
	// BENCHMARK.json does not list it: the benchmark's time limit fits
	// longer runs of two workloads better than shorter runs of three, and
	// fig8-sweep already loads every simulator layer this one does. It
	// stays runnable by name for eviction-heavy investigations.
	{
		name: "thrash-policies", scale: 1.0, warps: 64,
		keys: func() []harness.Key {
			var keys []harness.Key
			for _, b := range thrashBenches {
				for _, su := range thrashSetups {
					keys = append(keys, harness.Key{Bench: b, Setup: su, OversubPct: 40})
				}
			}
			return keys
		},
	},
	// serve-mixed submits the Fig. 9(b) grid (23 x {baseline, random,
	// lru-10%, lru-20%, cppe} @50, 115 jobs, each once) to an in-process
	// cppe-serve with the shipped defaults except a 4M-cycle checkpoint
	// cadence and store files kept in memory (serveCheckpointEvery and
	// memFS say why: both keep a shared disk's latency out of the
	// figures), from a closed loop of nproc
	// clients that each run ten cached hits per fresh job. It is the only
	// workload that loads snapshot (checkpoint encoding), store (journal,
	// results) and the serve queue and HTTP layers; writes (journal,
	// checkpoints, results) run beside reads (cached results). Hits bypass
	// the simulator entirely, so they show the no-change prediction for
	// every simulator layer.
	{
		name: "serve-mixed", scale: 0.25, warps: 64, serve: true,
		keys: func() []harness.Key {
			var keys []harness.Key
			for _, b := range workload.Abbrs() {
				for _, su := range fig9bSetups {
					keys = append(keys, harness.Key{Bench: b, Setup: su, OversubPct: 50})
				}
			}
			return keys
		},
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rows splits keys into per-benchmark groups in first-appearance order: one
// row is what Session.Warm runs as one shared-trace lockstep group.
func rows(keys []harness.Key) [][]harness.Key {
	var order []string
	by := make(map[string][]harness.Key)
	for _, k := range keys {
		if _, ok := by[k.Bench]; !ok {
			order = append(order, k.Bench)
		}
		by[k.Bench] = append(by[k.Bench], k)
	}
	out := make([][]harness.Key, len(order))
	for i, b := range order {
		out[i] = by[b]
	}
	return out
}
