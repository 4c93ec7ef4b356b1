package sm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

// TestResetMatchesNewMachine pins Reset's contract: a machine that ran a
// different simulation — whatever way that run ended — and is then Reset for
// one fixed set of inputs is indistinguishable from NewMachine over those
// inputs. The snapshot codec covers every mutated field (the statecov lint
// enforces it), so byte-identical snapshots at construction, at a mid-run
// pause with faults, migrations and evictions in flight, and identical final
// results leave no state for a previous run to leak through. A Reset machine
// must also accept a checkpoint the way a new one does.
func TestResetMatchesNewMachine(t *testing.T) {
	cfg := smallConfig()
	cfg.MemoryPages = 8 * memdef.ChunkPages
	traces := oversubTraces(6, 96)
	target := func() (evict.Policy, prefetch.Prefetcher) {
		return evict.NewMHPE(evict.MHPEOptions{}), prefetch.MustPattern(prefetch.Scheme2, 0)
	}
	pol, pf := target()
	pauseAt := NewMachine(cfg, pol, pf, traces).Run(0).Cycles / 2

	pol, pf = target()
	fresh := NewMachine(cfg, pol, pf, traces)
	wantBuilt := mustSnapshot(t, fresh)
	if _, paused := fresh.RunUntil(0, pauseAt); !paused {
		t.Fatal("reference run finished before the pause boundary")
	}
	wantPaused := mustSnapshot(t, fresh)
	wantFinal := captureFinal(fresh, fresh.Run(0))

	// Each previous run uses other inputs — more warps at other addresses,
	// another capacity, policy and prefetcher — and ends its own way.
	const shift = 40 * memdef.ChunkPages
	thrash := make([]memdef.Access, 0, 600)
	for round := 0; round < 200; round++ {
		for c := 0; c < 3; c++ {
			thrash = append(thrash, memdef.Access{Addr: memdef.ChunkID(c).FirstPage().Addr() + shift*memdef.PageBytes})
		}
	}
	for _, prev := range []struct {
		name string
		cfg  func(memdef.Config) memdef.Config
		run  func(t *testing.T, m *Machine)
		// traces overrides the previous run's workload (nil: the default).
		traces [][]memdef.Access
	}{
		{name: "finished", run: func(t *testing.T, m *Machine) {
			if res := m.Run(0); res.Crashed || res.Accesses == 0 {
				t.Fatalf("previous run did not finish cleanly: %+v", res)
			}
		}},
		{name: "thrash-abort", traces: [][]memdef.Access{thrash},
			cfg: func(c memdef.Config) memdef.Config { c.MemoryPages = 2 * memdef.ChunkPages; return c },
			run: func(t *testing.T, m *Machine) {
				m.SetFootprint(1)
				if res := m.Run(0); !res.Crashed || res.Err != nil {
					t.Fatalf("previous run did not thrash-abort: %+v", res)
				}
			}},
		{name: "event-budget", run: func(t *testing.T, m *Machine) {
			if res := m.Run(5_000); !errors.Is(res.Err, engine.ErrBudget) {
				t.Fatalf("previous run did not exhaust its budget: %+v", res)
			}
		}},
		{name: "paused",
			run: func(t *testing.T, m *Machine) {
				// Early enough that far faults are still being serviced.
				if _, paused := m.RunUntil(0, 10_000); !paused {
					t.Fatal("previous run finished before its pause boundary")
				}
			}},
		{name: "audited",
			cfg: func(c memdef.Config) memdef.Config { c.AuditEveryCycles = 10_000; return c },
			run: func(t *testing.T, m *Machine) {
				if m.Auditor() == nil {
					t.Fatal("audited build has no auditor")
				}
				if res := m.Run(0); res.Err != nil {
					t.Fatalf("audited previous run failed: %v", res.Err)
				}
			}},
		{name: "chaos",
			cfg: func(c memdef.Config) memdef.Config { c.ChaosSeed = 7; return c },
			run: func(t *testing.T, m *Machine) {
				if m.Injector() == nil {
					t.Fatal("chaos build has no injector")
				}
				if res := m.Run(0); res.Err != nil {
					t.Fatalf("chaos previous run failed: %v", res.Err)
				}
			}},
	} {
		t.Run(prev.name, func(t *testing.T) {
			pcfg := cfg
			pcfg.MemoryPages = 16 * memdef.ChunkPages
			if prev.cfg != nil {
				pcfg = prev.cfg(pcfg)
			}
			ptraces := prev.traces
			if ptraces == nil {
				ptraces = oversubTraces(8, 80)
				for _, tr := range ptraces {
					for i := range tr {
						tr[i].Addr += shift * memdef.PageBytes
					}
				}
			}
			m := NewMachine(pcfg, evict.NewLRU(), prefetch.NewLocality(), ptraces)
			prev.run(t, m)
			m.Release()

			pol, pf := target()
			if err := m.Reset(cfg, pol, pf, traces); err != nil {
				t.Fatal(err)
			}
			if m.Auditor() != nil || m.Injector() != nil {
				t.Fatal("Reset kept the previous run's auditor or injector")
			}
			if got := mustSnapshot(t, m); !bytes.Equal(got, wantBuilt) {
				t.Fatal("snapshot after Reset differs from a new machine's")
			}
			if _, paused := m.RunUntil(0, pauseAt); !paused {
				t.Fatal("reset run finished before the pause boundary")
			}
			if got := mustSnapshot(t, m); !bytes.Equal(got, wantPaused) {
				t.Fatal("mid-run snapshot after Reset differs from a new machine's")
			}
			if got := captureFinal(m, m.Run(0)); !reflect.DeepEqual(got, wantFinal) {
				t.Fatalf("final state after Reset:\n%+v\nwant\n%+v", got, wantFinal)
			}

			// A Reset machine also accepts a checkpoint, like a new one.
			pol, pf = target()
			if err := m.Reset(cfg, pol, pf, traces); err != nil {
				t.Fatal(err)
			}
			if err := m.Restore(wantPaused); err != nil {
				t.Fatalf("restore into a Reset machine: %v", err)
			}
			if got := captureFinal(m, m.Run(0)); !reflect.DeepEqual(got, wantFinal) {
				t.Fatalf("final state after Reset and Restore:\n%+v\nwant\n%+v", got, wantFinal)
			}
		})
	}
}

// TestResetRejectsGeometry checks that a configuration the machine's arrays
// do not fit is refused without touching the machine.
func TestResetRejectsGeometry(t *testing.T) {
	cfg := smallConfig()
	cfg.MemoryPages = 8 * memdef.ChunkPages
	traces := oversubTraces(4, 32)
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), traces)
	want := mustSnapshot(t, m)
	bigger := cfg
	bigger.L2CacheBytes *= 2
	if err := m.Reset(bigger, evict.NewLRU(), prefetch.NewLocality(), traces); !errors.Is(err, ErrGeometry) {
		t.Fatalf("Reset with another L2 size: %v, want ErrGeometry", err)
	}
	if got := mustSnapshot(t, m); !bytes.Equal(got, want) {
		t.Fatal("a refused Reset changed the machine")
	}
}

func mustSnapshot(t *testing.T, m *Machine) []byte {
	t.Helper()
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
