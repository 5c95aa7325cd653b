package smmem

import (
	"testing"

	"kset/internal/prng"
	"kset/internal/types"
)

func smView(n int) *View {
	return &View{
		N:       n,
		Decided: make([]bool, n),
		Crashed: make([]bool, n),
		Faulty:  make([]bool, n),
	}
}

func pids(ids ...int) []types.ProcessID {
	out := make([]types.ProcessID, len(ids))
	for i, v := range ids {
		out[i] = types.ProcessID(v)
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	rr := &RoundRobin{}
	pending := pids(0, 1, 2)
	view := smView(3)
	rng := prng.New(1)
	var order []types.ProcessID
	for i := 0; i < 6; i++ {
		order = append(order, rr.Next(view, pending, rng))
	}
	want := pids(1, 2, 0, 1, 2, 0) // last starts at 0, so first grant is 1
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round-robin order %v, want %v", order, want)
		}
	}
}

func TestHoldReleasesOnWatchedDecisions(t *testing.T) {
	h := NewHold(4, pids(2, 3), pids(0, 1))
	view := smView(4)
	pending := pids(0, 1, 2, 3)
	rng := prng.New(2)
	for i := 0; i < 50; i++ {
		if got := h.Next(view, pending, rng); got >= 2 {
			t.Fatal("held process granted while gate closed")
		}
	}
	view.Decided[0] = true
	view.Decided[1] = true
	sawHeld := false
	for i := 0; i < 50; i++ {
		if got := h.Next(view, pending, rng); got >= 2 {
			sawHeld = true
			break
		}
	}
	if !sawHeld {
		t.Fatal("gate never opened after watched processes decided")
	}
}

func TestHoldIgnoresFaultyWatched(t *testing.T) {
	h := NewHold(3, pids(2), pids(0, 1))
	view := smView(3)
	view.Decided[0] = true
	view.Faulty[1] = true // will never decide; must not wedge the gate
	pending := pids(2)
	if got := h.Next(view, pending, prng.New(1)); got != 2 {
		t.Fatal("gate wedged on a faulty watched process")
	}
}

func TestHoldReleaseDeadline(t *testing.T) {
	h := NewHold(3, pids(2), pids(0, 1))
	h.ReleaseAtOps = 100
	view := smView(3)
	view.Ops = 99
	pending := pids(0, 2)
	rng := prng.New(4)
	for i := 0; i < 30; i++ {
		if got := h.Next(view, pending, rng); got == 2 {
			t.Fatal("held process granted before the deadline")
		}
	}
	view.Ops = 100
	saw := false
	for i := 0; i < 30; i++ {
		if h.Next(view, pending, rng) == 2 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("deadline did not release the held process")
	}
}

func TestHoldFallsBackWhenAllPendingHeld(t *testing.T) {
	h := NewHold(2, pids(0, 1), nil)
	if got := h.Next(smView(2), pids(0), prng.New(1)); got != 0 {
		t.Fatal("fallback must grant the only pending process")
	}
}

func TestStarveAvoidsStarvedUntilDeadline(t *testing.T) {
	s := NewStarve(3, 0)
	s.ReleaseAtOps = 50
	view := smView(3)
	pending := pids(0, 1, 2)
	rng := prng.New(9)
	for i := 0; i < 40; i++ {
		if got := s.Next(view, pending, rng); got == 0 {
			t.Fatal("starved process granted before deadline")
		}
	}
	view.Ops = 50
	saw := false
	for i := 0; i < 40; i++ {
		if s.Next(view, pending, rng) == 0 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("deadline did not end the starvation")
	}
}

func TestStarveFallsBackWhenOnlyStarvedPending(t *testing.T) {
	s := NewStarve(2, 0)
	if got := s.Next(smView(2), pids(0), prng.New(1)); got != 0 {
		t.Fatal("fallback must grant the only pending process")
	}
}

func TestDecisionLatencyRecorded(t *testing.T) {
	rec, err := Run(Config{
		N: 3, T: 0, K: 3,
		Inputs:      distinctInputs(3),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 3} },
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lats, ok := rec.DecisionLatencies()
	if !ok {
		t.Fatal("latency data missing")
	}
	if len(lats) != 3 {
		t.Fatalf("%d latencies, want 3", len(lats))
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] < lats[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	// Each decision needs at least one write plus a full scan.
	if lats[0] < 3 {
		t.Errorf("first decision at op %d, impossibly early", lats[0])
	}
}

// TestKeptPicksMatchReference draws through Starve and a closed Hold and
// through the old eligible-slice body from twin rng streams, over runs in
// which pending shrinks at random: same pick every time, and the streams
// still agree afterwards, so neither drew more than the other. Each policy
// serves several runs in a row, whose pending lists reach the same lengths
// with other processes in them, so a list kept from an earlier run or from a
// longer pending list shows.
func TestKeptPicksMatchReference(t *testing.T) {
	shape := prng.New(11)
	for round := 0; round < 300; round++ {
		n := shape.Intn(24) + 1
		excluded := make([]bool, n)
		for p := range excluded {
			// Every third round excludes everyone: the fallback draw.
			excluded[p] = round%3 == 0 || shape.Intn(2) == 0
		}
		watch := make([]bool, n)
		watch[shape.Intn(n)] = true
		policies := []Scheduler{&Starve{Starved: excluded}, &Hold{Held: excluded, Watch: watch}}
		for _, sched := range policies {
			seed := shape.Uint64()
			rng, refRng := prng.New(seed), prng.New(seed)
			for run := 0; run < 3; run++ {
				view := smView(n) // nobody decided: the Hold's gate stays closed
				pending := make([]types.ProcessID, n)
				for p := range pending {
					pending[p] = types.ProcessID(p)
				}
				for len(pending) > 0 {
					for draws := shape.Intn(4); draws >= 0; draws-- {
						got, want := sched.Next(view, pending, rng), refPickExcluding(pending, excluded, refRng)
						if got != want {
							t.Fatalf("round %d %T run %d: picked %v, reference %v (pending %v, excluded %v)",
								round, sched, run, got, want, pending, excluded)
						}
					}
					gone := shape.Intn(len(pending))
					pending = append(pending[:gone], pending[gone+1:]...)
				}
			}
			if rng.Uint64() != refRng.Uint64() {
				t.Fatalf("round %d %T: rng streams diverged: a pick drew more or less often than the reference", round, sched)
			}
		}
	}
}

// refPickExcluding is the tail of Hold.Next and Starve.Next as it was: an
// eligible slice built per pick. The kept list must make the same pick from
// the same single draw.
func refPickExcluding(pending []types.ProcessID, excluded []bool, rng *prng.Source) types.ProcessID {
	eligible := make([]types.ProcessID, 0, len(pending))
	for _, pid := range pending {
		if !excluded[pid] {
			eligible = append(eligible, pid)
		}
	}
	if len(eligible) == 0 {
		return pending[rng.Intn(len(pending))]
	}
	return eligible[rng.Intn(len(eligible))]
}

// TestPicksDoNotAllocate: a grant is the hot path of every shared-memory run,
// so no policy may allocate per pick — closed gate, open gate and the
// everyone-excluded fallback included.
func TestPicksDoNotAllocate(t *testing.T) {
	const n = 16
	pending := make([]types.ProcessID, n)
	for i := range pending {
		pending[i] = types.ProcessID(i)
	}
	closed, open := smView(n), smView(n)
	for p := range open.Decided {
		open.Decided[p] = true
	}
	holdAll := NewHold(n, pending, pids(0))
	policies := []struct {
		name  string
		sched Scheduler
		view  *View
	}{
		{"fair-random", FairRandom{}, closed},
		{"round-robin", &RoundRobin{}, closed},
		{"hold/closed", NewHold(n, pids(8, 9, 10, 11, 12, 13, 14, 15), pids(0, 1, 2, 3)), closed},
		{"hold/open", NewHold(n, pids(8, 9, 10, 11, 12, 13, 14, 15), pids(0, 1, 2, 3)), open},
		{"hold/all-held", holdAll, closed},
		{"starve", NewStarve(n, 0, 15), closed},
		{"starve/all-starved", NewStarve(n, pending...), closed},
	}
	for _, p := range policies {
		rng := prng.New(3)
		if allocs := testing.AllocsPerRun(200, func() { p.sched.Next(p.view, pending, rng) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per pick, want 0", p.name, allocs)
		}
	}
}
