package adversary

import (
	"fmt"
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

// pickLog is a Recorder keeping everything it is told.
type pickLog struct{ events []string }

func (l *pickLog) Pick(seq int) { l.events = append(l.events, fmt.Sprint(seq)) }
func (l *pickLog) CrashAtEvent(p types.ProcessID, events int) {
	l.events = append(l.events, fmt.Sprintf("%s@event%d", p, events))
}
func (l *pickLog) CrashAtSend(p types.ProcessID, sends int) {
	l.events = append(l.events, fmt.Sprintf("%s@send%d", p, sends))
}

// TestBoundarySchedulerMatchesReference runs the boundary construction under
// boundaryScheduler and under its old body, with and without random crashes
// (faulty members change which groups count as decided), and requires the
// identical pick sequence, crash points and record.
func TestBoundarySchedulerMatchesReference(t *testing.T) {
	for _, p := range []struct{ n, k int }{{4, 2}, {8, 2}, {12, 3}, {16, 4}, {24, 4}} {
		cons, err := BoundaryProtocolA(p.n, p.k)
		if err != nil {
			t.Fatal(err)
		}
		prod := cons.NewScheduler().(*boundaryScheduler)
		for seed := uint64(1); seed <= 20; seed++ {
			for _, crashes := range []bool{false, true} {
				run := func(sched mpnet.Scheduler) (*types.RunRecord, []string) {
					cfg := *cons.MP
					log := &pickLog{}
					cfg.Scheduler, cfg.Recorder, cfg.Seed = sched, log, seed
					if crashes {
						cfg.Crash = mpnet.NewRandomCrashes(2.0/float64(p.n), seed)
					}
					rec, err := mpnet.Run(cfg)
					if err != nil {
						t.Fatalf("n=%d k=%d seed %d: %v", p.n, p.k, seed, err)
					}
					return rec, log.events
				}
				wantRec, want := run(&refBoundaryScheduler{group: prod.group, victim: prod.victim})
				gotRec, got := run(cons.NewScheduler())
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRec, wantRec) {
					t.Fatalf("n=%d k=%d seed %d crashes %v: run differs from the reference\n got %v\nwant %v\n got %+v\nwant %+v",
						p.n, p.k, seed, crashes, got, want, gotRec, wantRec)
				}
			}
		}
	}
}
