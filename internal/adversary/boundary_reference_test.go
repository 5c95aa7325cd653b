package adversary

import (
	"reflect"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/types"
)

// refBoundaryScheduler is boundaryScheduler as it was before the indexed
// pool: one pass building an eligible slice, the gate re-evaluated per
// message. It is the oracle of TestBoundarySchedulerMatchesReference.
type refBoundaryScheduler struct {
	group       []int
	victim      types.ProcessID
	victimCross int
}

func (b *refBoundaryScheduler) groupDecided(view *mpnet.View, g int) bool {
	for p := 0; p < view.N; p++ {
		if b.group[p] != g || view.Faulty[p] || types.ProcessID(p) == b.victim {
			continue
		}
		if !view.Decided[p] {
			return false
		}
	}
	return true
}

func (b *refBoundaryScheduler) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	inflight := pool.Envelopes()
	eligible := make([]int, 0, len(inflight))
	crossToVictim := -1
	for i, env := range inflight {
		sg, rg := b.group[env.From], b.group[env.To]
		switch {
		case env.To == b.victim && sg == rg:
			if b.victimCross >= 1 {
				eligible = append(eligible, i)
			}
		case env.To == b.victim:
			if b.groupDecided(view, sg) {
				crossToVictim = i
			}
		case sg == rg:
			eligible = append(eligible, i)
		default:
			if b.groupDecided(view, rg) && view.Decided[env.To] {
				eligible = append(eligible, i)
			}
		}
	}
	if b.victimCross == 0 && crossToVictim >= 0 {
		b.victimCross++
		return crossToVictim
	}
	if len(eligible) == 0 {
		return rng.Intn(len(inflight))
	}
	return eligible[rng.Intn(len(eligible))]
}

// TestBoundarySchedulerMatchesReference runs the boundary construction under
// boundaryScheduler and under its old body, with and without random crashes
// (faulty members change which groups count as decided), and requires the
// identical event stream (every send, delivery and crash, in order) and
// record.
func TestBoundarySchedulerMatchesReference(t *testing.T) {
	for _, p := range []struct{ n, k int }{{4, 2}, {8, 2}, {12, 3}, {16, 4}, {24, 4}} {
		cons, err := BoundaryProtocolA(p.n, p.k)
		if err != nil {
			t.Fatal(err)
		}
		prod := cons.MP.Scheduler.(*boundaryScheduler)
		for seed := uint64(1); seed <= 20; seed++ {
			for _, crashes := range []bool{false, true} {
				run := func(sched mpnet.Scheduler) (*types.RunRecord, []string) {
					cfg := *cons.MP
					var events []string
					cfg.Scheduler, cfg.Seed = sched, seed
					cfg.Trace = func(ev mpnet.TraceEvent) { events = append(events, ev.String()) }
					if crashes {
						cfg.Crash = &types.RandomCrashes{Rate: 2.0 / float64(p.n), Seed: seed}
					}
					rec, err := mpnet.Run(cfg)
					if err != nil {
						t.Fatalf("n=%d k=%d seed %d: %v", p.n, p.k, seed, err)
					}
					return rec, events
				}
				wantRec, want := run(&refBoundaryScheduler{group: prod.group, victim: prod.victim})
				gotRec, got := run(prod)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRec, wantRec) {
					t.Fatalf("n=%d k=%d seed %d crashes %v: run differs from the reference\n got %v\nwant %v\n got %+v\nwant %+v",
						p.n, p.k, seed, crashes, got, want, gotRec, wantRec)
				}
			}
		}
	}
}

// TestBoundaryRestartMatchesFresh: the boundary construction's scheduler
// counts the victim's foreign message per run and starts the count again on
// a new (view, Run) pair. The construction's one config, run after run on a
// single mpnet.Runner, must give every run's picks and record exactly as a
// freshly built construction does.
func TestBoundaryRestartMatchesFresh(t *testing.T) {
	for _, p := range []struct{ n, k int }{{4, 2}, {12, 3}} {
		cons, err := BoundaryProtocolA(p.n, p.k)
		if err != nil {
			t.Fatal(err)
		}
		var r mpnet.Runner
		for seed := uint64(1); seed <= 6; seed++ {
			run := func(run func(mpnet.Config) (*types.RunRecord, error), cfg mpnet.Config) (*types.RunRecord, []string) {
				var events []string
				cfg.Seed = seed
				cfg.Trace = func(ev mpnet.TraceEvent) { events = append(events, ev.String()) }
				if seed%2 == 0 {
					cfg.Crash = &types.RandomCrashes{Rate: 2.0 / float64(p.n), Seed: seed}
				}
				rec, err := run(cfg)
				if err != nil {
					t.Fatalf("n=%d k=%d seed %d: %v", p.n, p.k, seed, err)
				}
				return rec.Clone(), events
			}
			fresh, err := BoundaryProtocolA(p.n, p.k)
			if err != nil {
				t.Fatal(err)
			}
			wantRec, want := run(mpnet.Run, *fresh.MP)
			gotRec, got := run(r.Run, *cons.MP)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRec, wantRec) {
				t.Fatalf("n=%d k=%d seed %d: the reused construction's run differs from a fresh one's\n got %v\nwant %v",
					p.n, p.k, seed, got, want)
			}
		}
	}
}
