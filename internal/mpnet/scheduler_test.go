package mpnet

import (
	"testing"

	"kset/internal/prng"
	"kset/internal/types"
)

func envelopes(seqs ...int) []Envelope {
	out := make([]Envelope, len(seqs))
	for i, s := range seqs {
		out[i] = Envelope{From: types.ProcessID(i % 3), To: types.ProcessID((i + 1) % 3), Seq: s}
	}
	return out
}

// poolOf puts hand-written envelopes in flight in the given pick order. Their
// sequence numbers must be distinct; the index is built from them on demand.
func poolOf(n int, envs []Envelope) *Pool {
	p := new(Pool)
	p.reset(n)
	p.env = append(p.env, envs...)
	for _, env := range envs {
		if env.Seq >= p.seq {
			p.seq = env.Seq + 1
		}
	}
	return p
}

func testView(n int) *View {
	return &View{
		N:       n,
		Decided: make([]bool, n),
		Crashed: make([]bool, n),
		Faulty:  make([]bool, n),
	}
}

func TestFIFOPicksOldest(t *testing.T) {
	env := envelopes(5, 2, 9, 1, 7)
	got := FIFO{}.Next(testView(3), poolOf(3, env), prng.New(1))
	if env[got].Seq != 1 {
		t.Errorf("FIFO picked seq %d, want 1", env[got].Seq)
	}
}

func TestLIFOPicksNewest(t *testing.T) {
	env := envelopes(5, 2, 9, 1, 7)
	got := LIFO{}.Next(testView(3), poolOf(3, env), prng.New(1))
	if env[got].Seq != 9 {
		t.Errorf("LIFO picked seq %d, want 9", env[got].Seq)
	}
}

func TestChannelFIFONeverReordersWithinChannel(t *testing.T) {
	// Two messages on the same channel: the older must always win.
	env := []Envelope{
		{From: 0, To: 1, Seq: 10},
		{From: 0, To: 1, Seq: 3},
		{From: 2, To: 1, Seq: 7},
	}
	rng := prng.New(5)
	for i := 0; i < 100; i++ {
		got := ChannelFIFO{}.Next(testView(3), poolOf(3, env), rng)
		if env[got].From == 0 && env[got].Seq != 3 {
			t.Fatalf("channel (0,1) delivered seq %d before 3", env[got].Seq)
		}
	}
}

func TestChannelFIFOIsFairAcrossChannels(t *testing.T) {
	env := []Envelope{
		{From: 0, To: 1, Seq: 1},
		{From: 2, To: 1, Seq: 2},
	}
	rng := prng.New(9)
	seen := map[types.ProcessID]bool{}
	for i := 0; i < 100; i++ {
		got := ChannelFIFO{}.Next(testView(3), poolOf(3, env), rng)
		seen[env[got].From] = true
	}
	if !seen[0] || !seen[2] {
		t.Errorf("channel selection not random: %v", seen)
	}
}

func TestDelayProcessHoldsSenderUntilOthersDecide(t *testing.T) {
	d := NewDelayProcess(3, 0)
	view := testView(3)
	env := []Envelope{
		{From: 0, To: 1, Seq: 1}, // delayed sender
		{From: 2, To: 1, Seq: 2},
	}
	rng := prng.New(1)
	for i := 0; i < 50; i++ {
		if got := d.Next(view, poolOf(3, env), rng); env[got].From == 0 {
			t.Fatal("delayed sender's message delivered before others decided")
		}
	}
	// Everyone except the delayed process decided: gate opens.
	view.Decided[1] = true
	view.Decided[2] = true
	opened := false
	for i := 0; i < 50; i++ {
		if got := d.Next(view, poolOf(3, env), rng); env[got].From == 0 {
			opened = true
			break
		}
	}
	if !opened {
		t.Fatal("gate never opened after all others decided")
	}
}

func TestDelayProcessFallsBackWhenOnlyDelayedTraffic(t *testing.T) {
	d := NewDelayProcess(2, 0)
	env := []Envelope{{From: 0, To: 1, Seq: 1}}
	if got := d.Next(testView(2), poolOf(2, env), prng.New(1)); got != 0 {
		t.Fatal("fallback must deliver the only in-flight message")
	}
}

func TestGroupGateFromAlwaysBypassesGates(t *testing.T) {
	g := NewGroupGate(4, [][]types.ProcessID{{0, 1}, {2, 3}})
	g.FromAlways = []bool{false, false, false, true} // p4 is e.g. Byzantine
	view := testView(4)
	env := []Envelope{
		{From: 3, To: 0, Seq: 1}, // cross-group but always eligible
		{From: 0, To: 2, Seq: 2}, // cross-group, gated
	}
	rng := prng.New(2)
	for i := 0; i < 50; i++ {
		if got := g.Next(view, poolOf(4, env), rng); got != 0 {
			t.Fatal("gated cross-group message delivered while FromAlways traffic pending")
		}
	}
}

func TestGroupGateIgnoresFaultyMembersWhenOpening(t *testing.T) {
	g := NewGroupGate(4, [][]types.ProcessID{{0, 1}, {2, 3}})
	view := testView(4)
	// Group 1 member p4 is Byzantine and will never decide; p3 decided.
	view.Faulty[3] = true
	view.Decided[2] = true
	env := []Envelope{{From: 0, To: 2, Seq: 1}}
	if got := g.Next(view, poolOf(4, env), prng.New(3)); got != 0 {
		t.Fatal("gate should be open: the only undecided member is faulty")
	}
}

func TestHaltOnDecideStopsParticipation(t *testing.T) {
	// With HaltOnDecide, a decided process consumes messages without
	// processing: its protocol sees no deliveries after deciding.
	counts := make(map[types.ProcessID]*int)
	rec, err := Run(Config{
		N: 3, T: 0, K: 3,
		Inputs: distinctInputs(3),
		NewProtocol: func(id types.ProcessID) Protocol {
			c := new(int)
			counts[id] = c
			return &countingProtocol{quorum: 1, delivered: c}
		},
		Seed:         1,
		HaltOnDecide: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rec.Decided[i] {
			t.Fatalf("process %d undecided", i)
		}
	}
	// Quorum 1 means each process decides on its own self-delivery; with
	// halting, the other broadcasts must never reach the protocol.
	for id, c := range counts {
		if *c > 1 {
			t.Errorf("%v processed %d deliveries after halting", id, *c)
		}
	}
}

// countingProtocol decides after quorum deliveries and counts every
// delivery it processes.
type countingProtocol struct {
	quorum    int
	delivered *int
	seen      map[types.ProcessID]struct{}
}

func (c *countingProtocol) Start(api API) {
	c.seen = make(map[types.ProcessID]struct{})
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (c *countingProtocol) Deliver(api API, from types.ProcessID, _ types.Payload) {
	*c.delivered++
	c.seen[from] = struct{}{}
	if !api.HasDecided() && len(c.seen) >= c.quorum {
		api.Decide(api.Input())
	}
}
