package cppe

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/reproductions/cppe/internal/harness"
)

// TestWarmMachineReuseMatchesFreshMachines checks that reusing machines
// across the runs of a sweep changes no result. A Parallelism-1 session warms
// the Fig. 8 grid in forward and in reverse order — so each machine is Reset
// from a different predecessor in each pass — and every key's result must
// render to the same cppe.ResultJSON bytes, and carry the same harness-level
// statistics, as the key run alone in a new session, on a machine that
// never ran anything before.
func TestWarmMachineReuseMatchesFreshMachines(t *testing.T) {
	opt := Options{Scale: 0.05, Warps: 32, Parallelism: 1}
	var keys []harness.Key
	for _, b := range Benchmarks() {
		for _, pct := range []int{75, 50} {
			keys = append(keys,
				harness.Key{Bench: b, Setup: SetupBaseline, OversubPct: pct},
				harness.Key{Bench: b, Setup: SetupCPPE, OversubPct: pct})
		}
	}
	request := func(k harness.Key) Request {
		return Request{Benchmark: k.Bench, Setup: k.Setup, Oversubscription: k.OversubPct}
	}
	render := func(t *testing.T, s *Session, k harness.Key) []byte {
		t.Helper()
		r, err := s.Run(request(k))
		if err != nil {
			t.Fatal(err)
		}
		data, err := ResultJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	wantJSON := make(map[harness.Key][]byte, len(keys))
	want := make(map[harness.Key]harness.Result, len(keys))
	for _, k := range keys {
		s := NewSession(opt)
		wantJSON[k] = render(t, s, k)
		want[k] = s.Harness().Run(k)
	}

	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	for _, order := range []struct {
		name string
		keys []harness.Key
	}{{"forward", keys}, {"reverse", reversed}} {
		t.Run(order.name, func(t *testing.T) {
			s := NewSession(opt)
			s.Harness().Warm(order.keys)
			for _, k := range keys {
				if got := render(t, s, k); !bytes.Equal(got, wantJSON[k]) {
					t.Errorf("%v: result JSON after machine reuse\n%s\nwant (fresh machine)\n%s", k, got, wantJSON[k])
				}
				if got := s.Harness().Run(k); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%v: harness result after machine reuse\n%+v\nwant (fresh machine)\n%+v", k, got, want[k])
				}
			}
		})
	}
}
