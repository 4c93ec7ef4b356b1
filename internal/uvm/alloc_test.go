package uvm

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/xbus"
)

// TestThrashLoopAllocFree pins the fault path's allocation freedom: once its
// pools are warm, a loop in which every access far-faults, merges a second
// fault into the first one's waiters, evicts a (partly dirty) chunk, and
// migrates the faulted chunk back in performs zero heap allocations. The
// loop covers the driver-slot semaphore, the service-latency and transfer
// completion events, the waiter lists, the prefetch plan, victim selection,
// and the migration registry.
func TestThrashLoopAllocFree(t *testing.T) {
	const (
		capacityPages  = 8 * memdef.ChunkPages
		footprintPages = 4 * capacityPages
	)
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MemoryPages = capacityPages
	for _, tc := range []struct {
		name string
		pol  func() evict.Policy
		pf   func() prefetch.Prefetcher
		// stride is the page step between accesses: one chunk when a fault
		// migrates the whole chunk, one page when it migrates one page.
		stride memdef.PageNum
	}{
		{"lru+locality", func() evict.Policy { return evict.NewLRU() }, func() prefetch.Prefetcher { return prefetch.NewLocality() }, memdef.ChunkPages},
		{"mhpe+locality", func() evict.Policy { return evict.NewMHPE(evict.MHPEOptions{}) }, func() prefetch.Prefetcher { return prefetch.NewLocality() }, memdef.ChunkPages},
		{"lru+none", func() evict.Policy { return evict.NewLRU() }, func() prefetch.Prefetcher { return prefetch.NewNone() }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			accesses := int(2 * footprintPages / tc.stride) // two laps of the footprint
			eng := engine.New()
			m := New(eng, cfg, xbus.New(eng, cfg), tc.pol(), tc.pf(), &flatMem{eng: eng})

			// Two streams, one per SM, walk the same strided page sequence in
			// lockstep: SM 0 claims each fault and SM 1's access
			// to the same page merges into its waiters. Every other access
			// writes, so evictions write dirty pages back.
			var left [2]int
			var pos [2]memdef.PageNum
			var next [2]func()
			for sm := range next {
				next[sm] = func() {
					if left[sm] == 0 {
						return
					}
					left[sm]--
					pos[sm] = (pos[sm] + tc.stride) % footprintPages
					kind := memdef.Read
					if left[sm]%2 == 0 {
						kind = memdef.Write
					}
					m.TranslateT(memdef.SMID(sm), memdef.Access{Addr: pos[sm].Addr(), Kind: kind},
						engine.Tag{Kind: 0xff01, A: uint64(sm)}, next[sm])
				}
			}
			var runErr error
			lap := func() {
				for sm := range next {
					left[sm] = accesses
					eng.Schedule(0, next[sm])
				}
				if _, err := eng.Run(nil); err != nil {
					runErr = err
				}
			}
			lap() // warm the pools: chunk states, waiter nodes, contexts, queue
			before := m.Stats()
			allocs := testing.AllocsPerRun(5, lap)
			if runErr != nil {
				t.Fatal(runErr)
			}
			after := m.Stats()
			if left != [2]int{} {
				t.Fatalf("accesses never completed: %v left", left)
			}
			if after.EvictedChunks == before.EvictedChunks || after.MergedFaults == before.MergedFaults ||
				after.DirtyPagesWrittenBack == before.DirtyPagesWrittenBack {
				t.Fatalf("loop did not thrash: before %+v after %+v", before, after)
			}
			if allocs != 0 {
				t.Fatalf("warmed fault/migrate/evict loop: %v allocs per %d-access lap, want 0", allocs, 2*accesses)
			}
		})
	}
}
