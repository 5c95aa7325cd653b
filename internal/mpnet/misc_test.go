package mpnet

import (
	"strings"
	"testing"

	"kset/internal/prng"
	"kset/internal/types"
)

func TestNewGroupGateBuildsPartition(t *testing.T) {
	g := NewGroupGate(6, [][]types.ProcessID{{0, 1}, {4}, {2, 3}})
	// Groups: {0,1} -> 0, {4} -> 1, {2,3} -> 2; 5 is in no listed group.
	want := []int{0, 0, 2, 2, 1, -1}
	for i, w := range want {
		if g.Group[i] != w {
			t.Errorf("Group[%d] = %d, want %d", i, g.Group[i], w)
		}
	}
}

func TestPreferIntraOrdersIntraFirst(t *testing.T) {
	p := NewPreferIntra(4, [][]types.ProcessID{{0, 1}, {2, 3}})
	env := []Envelope{
		{From: 0, To: 2, Seq: 1}, // cross
		{From: 0, To: 1, Seq: 2}, // intra
		{From: 3, To: 2, Seq: 3}, // intra
	}
	rng := prng.New(7)
	for i := 0; i < 50; i++ {
		got := p.Next(testView(4), poolOf(4, env), rng)
		if got == 0 {
			t.Fatal("cross message delivered while intra traffic pending")
		}
	}
	// Only cross traffic left: deliver it.
	crossOnly := []Envelope{{From: 0, To: 2, Seq: 1}}
	if got := p.Next(testView(4), poolOf(4, crossOnly), rng); got != 0 {
		t.Fatal("cross message not delivered when it is the only traffic")
	}
}

func TestTraceEventStrings(t *testing.T) {
	cases := []struct {
		ev   TraceEvent
		want string
	}{
		{TraceEvent{Type: EvSend, Proc: 0, Peer: 1, Payload: types.Payload{Kind: types.KindInput, Value: 5}}, "p1 -> p2"},
		{TraceEvent{Type: EvDeliver, Proc: 1, Peer: 0}, "p2 <- p1"},
		{TraceEvent{Type: EvDecide, Proc: 2, Value: 9}, "p3 DECIDES 9"},
		{TraceEvent{Type: EvCrash, Proc: 3}, "p4 CRASHES"},
		{TraceEvent{Type: EvBudget}, "BUDGET"},
	}
	for _, c := range cases {
		if got := c.ev.String(); !strings.Contains(got, c.want) {
			t.Errorf("%v rendered %q, want substring %q", c.ev.Type, got, c.want)
		}
	}
	for _, typ := range []TraceEventType{EvSend, EvDeliver, EvDecide, EvCrash, EvBudget} {
		if strings.Contains(typ.String(), "event(") {
			t.Errorf("type %d missing a name", typ)
		}
	}
}

func TestByzantineProcessesAreMarkedFaulty(t *testing.T) {
	rec, err := Run(Config{
		N: 3, T: 1, K: 2,
		Inputs:      distinctInputs(3),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 2} },
		Byzantine: map[types.ProcessID]Protocol{
			2: &broadcaster{quorum: 2}, // a "Byzantine" running the real protocol
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Faulty[2] {
		t.Error("Byzantine process not marked faulty")
	}
	if rec.Model.Failure != types.Byzantine {
		t.Errorf("model failure mode = %v, want Byzantine", rec.Model.Failure)
	}
}
