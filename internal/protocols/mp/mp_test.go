package mp

import (
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/types"
)

// fakeAPI is a scripted mpnet.API for unit-testing protocol state machines
// without a runtime: sends are recorded, decisions captured.
type fakeAPI struct {
	id      types.ProcessID
	n, t, k int
	input   types.Value
	rng     *prng.Source

	sent     []sentMsg
	decided  bool
	decision types.Value
}

type sentMsg struct {
	to      types.ProcessID
	payload types.Payload
	bcast   bool
}

var _ mpnet.API = (*fakeAPI)(nil)

func newFakeAPI(id types.ProcessID, n, t, k int, input types.Value) *fakeAPI {
	return &fakeAPI{id: id, n: n, t: t, k: k, input: input, rng: prng.New(1)}
}

func (f *fakeAPI) ID() types.ProcessID { return f.id }
func (f *fakeAPI) N() int              { return f.n }
func (f *fakeAPI) T() int              { return f.t }
func (f *fakeAPI) K() int              { return f.k }
func (f *fakeAPI) Input() types.Value  { return f.input }
func (f *fakeAPI) HasDecided() bool    { return f.decided }
func (f *fakeAPI) Rand() *prng.Source  { return f.rng }

func (f *fakeAPI) Send(to types.ProcessID, p types.Payload) {
	f.sent = append(f.sent, sentMsg{to: to, payload: p})
}

func (f *fakeAPI) Broadcast(p types.Payload) {
	f.sent = append(f.sent, sentMsg{to: -1, payload: p, bcast: true})
}

func (f *fakeAPI) Decide(v types.Value) {
	if !f.decided {
		f.decided, f.decision = true, v
	}
}

func input(v types.Value) types.Payload { return types.Payload{Kind: types.KindInput, Value: v} }

func TestFloodMinDecidesMinOfQuorum(t *testing.T) {
	api := newFakeAPI(0, 5, 2, 3, 7)
	p := NewFloodMin()
	p.Start(api)
	if len(api.sent) != 1 || !api.sent[0].bcast {
		t.Fatalf("Start should broadcast once, sent %v", api.sent)
	}
	p.Deliver(api, 0, input(7)) // self
	p.Deliver(api, 1, input(9))
	if api.decided {
		t.Fatal("decided before n-t messages")
	}
	p.Deliver(api, 2, input(4)) // third message: n-t = 3 reached
	if !api.decided || api.decision != 4 {
		t.Fatalf("decision = %v (decided=%v), want 4", api.decision, api.decided)
	}
	// Late messages change nothing.
	p.Deliver(api, 3, input(1))
	if api.decision != 4 {
		t.Fatal("decision changed after deciding")
	}
}

func TestFloodMinIgnoresDuplicateSenders(t *testing.T) {
	api := newFakeAPI(0, 4, 1, 2, 5)
	p := NewFloodMin()
	p.Start(api)
	p.Deliver(api, 1, input(3))
	p.Deliver(api, 1, input(1)) // duplicate sender: ignored entirely
	p.Deliver(api, 1, input(2))
	if api.decided {
		t.Fatal("duplicates must not count toward the quorum")
	}
	p.Deliver(api, 0, input(5))
	p.Deliver(api, 2, input(9))
	if !api.decided || api.decision != 3 {
		t.Fatalf("decision = %v, want 3 (duplicate value 1 ignored)", api.decision)
	}
}

func TestProtocolAUnanimousAndMixed(t *testing.T) {
	// Unanimous: decide the common value.
	api := newFakeAPI(0, 4, 1, 2, 6)
	a := NewProtocolA()
	a.Start(api)
	a.Deliver(api, 0, input(6))
	a.Deliver(api, 1, input(6))
	a.Deliver(api, 2, input(6))
	if !api.decided || api.decision != 6 {
		t.Fatalf("decision = %v, want 6", api.decision)
	}
	// Mixed: decide the default.
	api2 := newFakeAPI(0, 4, 1, 2, 6)
	a2 := NewProtocolA()
	a2.Start(api2)
	a2.Deliver(api2, 0, input(6))
	a2.Deliver(api2, 1, input(7))
	a2.Deliver(api2, 2, input(6))
	if !api2.decided || api2.decision != types.DefaultValue {
		t.Fatalf("decision = %v, want default", api2.decision)
	}
}

func TestProtocolBOwnValueRule(t *testing.T) {
	// n=6, t=1: wait for 5 messages, decide own input iff >= n-2t = 4 match.
	api := newFakeAPI(0, 6, 1, 3, 5)
	b := NewProtocolB()
	b.Start(api)
	b.Deliver(api, 0, input(5))
	b.Deliver(api, 1, input(5))
	b.Deliver(api, 2, input(5))
	b.Deliver(api, 3, input(9))
	if api.decided {
		t.Fatal("decided before n-t messages")
	}
	b.Deliver(api, 4, input(5))
	if !api.decided || api.decision != 5 {
		t.Fatalf("decision = %v, want own input 5 (4 matches >= 4)", api.decision)
	}
	// Not enough matches: default.
	api2 := newFakeAPI(0, 6, 1, 3, 5)
	b2 := NewProtocolB()
	b2.Start(api2)
	b2.Deliver(api2, 0, input(5))
	b2.Deliver(api2, 1, input(9))
	b2.Deliver(api2, 2, input(9))
	b2.Deliver(api2, 3, input(5))
	b2.Deliver(api2, 4, input(5))
	if !api2.decided || api2.decision != types.DefaultValue {
		t.Fatalf("decision = %v, want default (3 matches < 4)", api2.decision)
	}
}

func echoMsg(origin types.ProcessID, v types.Value) types.Payload {
	return types.Payload{Kind: types.KindEcho, Value: v, Origin: origin}
}

func initMsg(origin types.ProcessID, v types.Value) types.Payload {
	return types.Payload{Kind: types.KindInit, Value: v, Origin: origin}
}

func TestEchoBroadcastEchoesFirstInitOnly(t *testing.T) {
	api := newFakeAPI(0, 7, 2, 3, 1)
	e := NewEchoBroadcast(1, nil)
	e.Handle(api, 3, initMsg(3, 42))
	if len(api.sent) != 1 || api.sent[0].payload.Kind != types.KindEcho ||
		api.sent[0].payload.Value != 42 || api.sent[0].payload.Origin != 3 {
		t.Fatalf("expected one echo of (42, p4), sent %v", api.sent)
	}
	// Second init from the same sender: ignored.
	e.Handle(api, 3, initMsg(3, 43))
	if len(api.sent) != 1 {
		t.Fatalf("second init echoed: %v", api.sent)
	}
}

func TestEchoBroadcastAcceptanceThreshold(t *testing.T) {
	// n=7, t=2, l=1: accept above (7+2)/2 = 4.5, i.e. at 5 echoes.
	var accepted []types.Value
	api := newFakeAPI(0, 7, 2, 3, 1)
	e := NewEchoBroadcast(1, func(_ types.ProcessID, v types.Value) {
		accepted = append(accepted, v)
	})
	for sender := 1; sender <= 4; sender++ {
		e.Handle(api, types.ProcessID(sender), echoMsg(6, 42))
	}
	if len(accepted) != 0 {
		t.Fatalf("accepted at 4 echoes, threshold is 5")
	}
	// Duplicate echoer does not help.
	e.Handle(api, 4, echoMsg(6, 42))
	if len(accepted) != 0 {
		t.Fatal("duplicate echoer counted")
	}
	e.Handle(api, 5, echoMsg(6, 42))
	if len(accepted) != 1 || accepted[0] != 42 {
		t.Fatalf("accepted = %v, want [42]", accepted)
	}
	// Acceptance fires once per (origin, value).
	e.Handle(api, 6, echoMsg(6, 42))
	if len(accepted) != 1 {
		t.Fatal("acceptance fired twice")
	}
}

func TestProtocolCDecidesOwnOnUnanimity(t *testing.T) {
	// n=4, t=1, l=1: echo threshold is floor((4+1)/2)+1 = 3; wait for
	// acceptances from n-t = 3 senders including own, decide own input if
	// >= n-2t = 2 match.
	api := newFakeAPI(0, 4, 1, 2, 8)
	c := NewProtocolC(1)
	c.Start(api)
	// Everyone (including us) echoes everyone's value 8.
	for origin := 0; origin < 3; origin++ {
		for echoer := 0; echoer < 4; echoer++ {
			c.Deliver(api, types.ProcessID(echoer), echoMsg(types.ProcessID(origin), 8))
		}
	}
	if !api.decided || api.decision != 8 {
		t.Fatalf("decision = %v (decided=%v), want 8", api.decision, api.decided)
	}
}

func TestProtocolCWaitsForOwnAcceptance(t *testing.T) {
	api := newFakeAPI(0, 4, 1, 2, 8)
	c := NewProtocolC(1)
	c.Start(api)
	// Acceptances for three senders other than us: must not decide yet.
	for origin := 1; origin <= 3; origin++ {
		for echoer := 0; echoer < 4; echoer++ {
			c.Deliver(api, types.ProcessID(echoer), echoMsg(types.ProcessID(origin), 8))
		}
	}
	if api.decided {
		t.Fatal("decided without own message accepted")
	}
	for echoer := 0; echoer < 4; echoer++ {
		c.Deliver(api, types.ProcessID(echoer), echoMsg(0, 8))
	}
	if !api.decided {
		t.Fatal("own acceptance arrived, should decide")
	}
}

func TestProtocolDOwnDeciders(t *testing.T) {
	// Paper-text variant: processes with id < k decide their own input at
	// Start; broadcasters are ids 0..t.
	api := newFakeAPI(1, 8, 2, 3, 11)
	d := NewProtocolD()
	d.Start(api)
	if !api.decided || api.decision != 11 {
		t.Fatalf("p2 (id < k=3) should decide its own input, got %v", api.decision)
	}
	// id 1 <= t=2 also broadcasts.
	if len(api.sent) != 1 || !api.sent[0].bcast || api.sent[0].payload.Kind != types.KindInit {
		t.Fatalf("expected init broadcast, sent %v", api.sent)
	}

	// A non-own-decider waits for n-t identical echoes.
	api2 := newFakeAPI(5, 8, 2, 3, 50)
	d2 := NewProtocolD()
	d2.Start(api2)
	if api2.decided {
		t.Fatal("p6 decided at start")
	}
	for echoer := 0; echoer < 5; echoer++ {
		d2.Deliver(api2, types.ProcessID(echoer), echoMsg(0, 30))
	}
	if api2.decided {
		t.Fatal("decided below n-t = 6 echoes")
	}
	d2.Deliver(api2, 5, echoMsg(0, 30))
	if !api2.decided || api2.decision != 30 {
		t.Fatalf("decision = %v, want 30", api2.decision)
	}
}

func TestProtocolDIgnoresNonBroadcasterInits(t *testing.T) {
	api := newFakeAPI(5, 8, 2, 3, 50)
	d := NewProtocolD()
	d.Start(api)
	before := len(api.sent)
	// Init claiming to be from p7 (id 6 > t=2): no echo.
	d.Deliver(api, 6, initMsg(6, 99))
	if len(api.sent) != before {
		t.Fatalf("echoed an init from a non-broadcaster: %v", api.sent[before:])
	}
	// Echoes for a non-broadcaster origin are ignored too.
	for echoer := 0; echoer < 8; echoer++ {
		d.Deliver(api, types.ProcessID(echoer), echoMsg(7, 99))
	}
	if api.decided {
		t.Fatal("accepted echoes for a non-broadcaster origin")
	}
}

func TestProtocolDBroadcastersVariant(t *testing.T) {
	d := NewProtocolDBroadcasters(2)
	api := newFakeAPI(2, 8, 2, 5, 30) // id 2 = t, a broadcaster
	d.Start(api)
	if !api.decided {
		t.Fatal("broadcaster should decide its own value in the t+1 variant")
	}
	d2 := NewProtocolDBroadcasters(2)
	api2 := newFakeAPI(3, 8, 2, 5, 40) // id 3 < k=5 but not a broadcaster
	d2.Start(api2)
	if api2.decided {
		t.Fatal("non-broadcaster must not own-decide in the t+1 variant")
	}
}

func TestTrivialDecidesOwnInput(t *testing.T) {
	api := newFakeAPI(3, 5, 2, 5, 77)
	p := NewTrivial()
	p.Start(api)
	if !api.decided || api.decision != 77 {
		t.Fatalf("decision = %v, want 77", api.decision)
	}
	if len(api.sent) != 0 {
		t.Fatal("Trivial should not send")
	}
}

func TestFirstPerSenderHelpers(t *testing.T) {
	var f firstPerSender
	f.reset(4)
	if !f.add(1, 5) || f.add(1, 6) {
		t.Fatal("add must record only the first value per sender")
	}
	f.add(2, 5)
	f.add(3, 7)
	if f.count() != 3 {
		t.Fatalf("count = %d, want 3", f.count())
	}
	if f.countValue(5) != 2 {
		t.Fatalf("countValue(5) = %d, want 2", f.countValue(5))
	}
	if _, ok := f.allEqual(); ok {
		t.Fatal("allEqual true on mixed values")
	}
	if m, ok := f.min(); !ok || m != 5 {
		t.Fatalf("min = %v, %v; want 5, true", m, ok)
	}
	var empty firstPerSender
	empty.reset(2)
	if _, ok := empty.allEqual(); ok {
		t.Fatal("allEqual on empty should report false")
	}
	if _, ok := empty.min(); ok {
		t.Fatal("min on empty should report false")
	}
}
