package smmem_test

import (
	"testing"

	"kset/internal/smmem"
	"kset/internal/types"
)

// TestStarveHoldReusedMatchFresh: Starve and Hold keep their candidates, and
// Hold its gate, from one pick to the next. One policy reused for run after
// run — as Construction.Violate reuses a construction's — must show
// every run exactly as a fresh policy does: record, Recorder stream and
// Trace stream. The runs' crash sets differ, so their pending lists shrink
// through different processes to the same lengths, and a gate opened in one
// run is closed at the start of the next.
func TestStarveHoldReusedMatchFresh(t *testing.T) {
	ids := func(from, to int) []types.ProcessID {
		var out []types.ProcessID
		for p := from; p < to; p++ {
			out = append(out, types.ProcessID(p))
		}
		return out
	}
	policies := []struct {
		name string
		make func(n int) smmem.Scheduler
	}{
		{"hold", func(n int) smmem.Scheduler {
			h := smmem.NewHold(n, ids(n/2, n), ids(0, n/2))
			h.ReleaseAtOps = 100 * n
			return h
		}},
		{"hold-all", func(n int) smmem.Scheduler { return smmem.NewHold(n, ids(0, n), ids(0, 1)) }},
		{"starve", func(n int) smmem.Scheduler {
			s := smmem.NewStarve(n, 0, types.ProcessID(n-1))
			s.ReleaseAtOps = 60 * n
			return s
		}},
		{"starve-one", func(n int) smmem.Scheduler { return smmem.NewStarve(n, 1) }},
	}
	const seeds = 16
	shrank := 0
	for _, n := range []int{3, 8} {
		for _, p := range policies {
			reused := p.make(n)
			for seed := uint64(1); seed <= seeds; seed++ {
				// The scripted and the random crashes of the matrix, in turn.
				fault := 1 + int(seed)%2
				run := func(sched smmem.Scheduler) *observed {
					cfg, _, _ := matrixConfig(t, n, seed, fault)
					cfg.Scheduler = sched
					return observe(cfg)
				}
				want, got := run(p.make(n)), run(reused)
				if d := streamDifference(got, want); d != "" {
					t.Errorf("%s %s n=%d seed=%d: the reused policy differs from a fresh one: %s",
						p.name, faultModes[fault].name, n, seed, d)
				}
				if got.rec != nil && got.rec.FaultCount() > 0 {
					shrank++
				}
			}
		}
	}
	if shrank == 0 {
		t.Error("no run crashed a process: pending never shrank")
	}
}
