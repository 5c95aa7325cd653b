package mpnet

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kset/internal/types"
)

// chattyProto is an arbitrary-but-bounded protocol driven by quick: it sends
// a scripted number of messages on start and in response to deliveries, and
// decides after a scripted number of deliveries. It exists to exercise the
// runtime's accounting invariants with protocol behaviours no human would
// write.
type chattyProto struct {
	startSends   int
	replySends   int
	decideAfter  int
	delivered    int
	totalReplies int
}

func (c *chattyProto) Start(api API) {
	for i := 0; i < c.startSends; i++ {
		api.Send(types.ProcessID(i%api.N()), types.Payload{Kind: types.KindInput, Value: api.Input()})
	}
}

func (c *chattyProto) Deliver(api API, from types.ProcessID, p types.Payload) {
	c.delivered++
	if c.totalReplies < 3*api.N() { // bounded chatter so runs stay finite
		for i := 0; i < c.replySends; i++ {
			c.totalReplies++
			api.Send(types.ProcessID((int(from)+i)%api.N()), p)
		}
	}
	if !api.HasDecided() && c.delivered >= c.decideAfter {
		api.Decide(api.Input())
	}
}

// runShape is a quick generator for randomized runtime workloads.
type runShape struct {
	N           int
	T           int
	StartSends  int
	ReplySends  int
	DecideAfter int
	Seed        uint64
	CrashRate   int // percent scaled to 0..20
}

// Generate implements quick.Generator.
func (runShape) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(8) + 2
	return reflect.ValueOf(runShape{
		N:           n,
		T:           r.Intn(n),
		StartSends:  r.Intn(2 * n),
		ReplySends:  r.Intn(3),
		DecideAfter: r.Intn(2*n) + 1,
		Seed:        r.Uint64(),
		CrashRate:   r.Intn(21),
	})
}

// TestRuntimeAccountingInvariants checks, for arbitrary protocol shapes and
// crash patterns, the conservation laws of the simulator:
//
//   - sender authenticity: every delivery's sender matches a real send by
//     that process (per-pair delivered <= sent);
//   - no activity after crash: a crashed process neither sends nor receives
//     deliveries afterwards;
//   - the record's message and event counters match the trace.
func TestRuntimeAccountingInvariants(t *testing.T) {
	prop := func(s runShape) bool {
		sent := map[[2]types.ProcessID]int{}
		delivered := map[[2]types.ProcessID]int{}
		crashed := map[types.ProcessID]bool{}
		violated := false
		var traceSends, traceDeliveries int

		cfg := Config{
			N: s.N, T: s.T, K: s.N,
			Inputs: make([]types.Value, s.N),
			NewProtocol: func(types.ProcessID) Protocol {
				return &chattyProto{
					startSends:  s.StartSends,
					replySends:  s.ReplySends,
					decideAfter: s.DecideAfter,
				}
			},
			Seed: s.Seed,
			Trace: func(ev TraceEvent) {
				switch ev.Type {
				case EvSend:
					if crashed[ev.Proc] {
						violated = true
					}
					sent[[2]types.ProcessID{ev.Proc, ev.Peer}]++
					traceSends++
				case EvDeliver:
					if crashed[ev.Proc] {
						violated = true
					}
					delivered[[2]types.ProcessID{ev.Peer, ev.Proc}]++
					if ev.Peer != ev.Proc {
						traceDeliveries++
					}
				case EvCrash:
					crashed[ev.Proc] = true
				}
			},
		}
		if s.CrashRate > 0 {
			cfg.Crash = &types.RandomCrashes{Rate: float64(s.CrashRate) / 100, Seed: s.Seed + 1}
		}
		rec, err := Run(cfg)
		if err != nil {
			return false
		}
		if violated {
			return false
		}
		for pair, d := range delivered {
			if d > sent[pair] {
				return false // forged or duplicated message
			}
		}
		if rec.Messages != traceSends {
			return false
		}
		if rec.Events != traceDeliveries {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
