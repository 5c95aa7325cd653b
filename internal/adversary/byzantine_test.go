package adversary

import (
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/types"
)

// recordingAPI captures a strategy's sends for behavioural unit tests.
type recordingAPI struct {
	id      types.ProcessID
	n, t, k int
	input   types.Value
	rng     *prng.Source
	sent    []sent
}

type sent struct {
	to      types.ProcessID
	payload types.Payload
}

var _ mpnet.API = (*recordingAPI)(nil)

func newRecordingAPI(id types.ProcessID, n int) *recordingAPI {
	return &recordingAPI{id: id, n: n, t: 1, k: 2, input: 1, rng: prng.New(7)}
}

func (r *recordingAPI) ID() types.ProcessID { return r.id }
func (r *recordingAPI) N() int              { return r.n }
func (r *recordingAPI) T() int              { return r.t }
func (r *recordingAPI) K() int              { return r.k }
func (r *recordingAPI) Input() types.Value  { return r.input }
func (r *recordingAPI) HasDecided() bool    { return false }
func (r *recordingAPI) Rand() *prng.Source  { return r.rng }
func (r *recordingAPI) Decide(types.Value)  {}

func (r *recordingAPI) Send(to types.ProcessID, p types.Payload) {
	r.sent = append(r.sent, sent{to: to, payload: p})
}

func (r *recordingAPI) Broadcast(p types.Payload) {
	for q := 0; q < r.n; q++ {
		r.Send(types.ProcessID(q), p)
	}
}

func TestSilentSendsNothing(t *testing.T) {
	api := newRecordingAPI(0, 4)
	var s Silent
	s.Start(api)
	s.Deliver(api, 1, types.Payload{Kind: types.KindInput, Value: 5})
	if len(api.sent) != 0 {
		t.Errorf("Silent sent %v", api.sent)
	}
}

func TestPersonaInputClaimsPerRecipient(t *testing.T) {
	api := newRecordingAPI(3, 4)
	s := NewPersonaInput(map[types.ProcessID]types.Value{0: 10, 1: 20}, 99)
	s.Start(api)
	if len(api.sent) != 4 {
		t.Fatalf("sent %d messages, want one per process", len(api.sent))
	}
	byTo := map[types.ProcessID]types.Value{}
	for _, m := range api.sent {
		if m.payload.Kind != types.KindInput {
			t.Errorf("wrong kind %v", m.payload.Kind)
		}
		byTo[m.to] = m.payload.Value
	}
	if byTo[0] != 10 || byTo[1] != 20 {
		t.Errorf("personas not honoured: %v", byTo)
	}
	if byTo[2] != 99 || byTo[3] != 99 {
		t.Errorf("default persona not used: %v", byTo)
	}
}

func TestPersonaEchoInitsPerRecipientAndEchoesHonestly(t *testing.T) {
	api := newRecordingAPI(3, 4)
	s := NewPersonaEcho(map[types.ProcessID]types.Value{0: 7}, 5)
	s.Start(api)
	if len(api.sent) != 4 {
		t.Fatalf("sent %d init messages, want 4", len(api.sent))
	}
	for _, m := range api.sent {
		if m.payload.Kind != types.KindInit || m.payload.Origin != 3 {
			t.Errorf("bad init %v", m.payload)
		}
	}
	api.sent = nil
	// First init from p1: echoed to everyone with the true value.
	s.Deliver(api, 0, types.Payload{Kind: types.KindInit, Value: 42, Origin: 0})
	if len(api.sent) != 4 {
		t.Fatalf("echoed %d messages, want broadcast of 4", len(api.sent))
	}
	for _, m := range api.sent {
		if m.payload.Kind != types.KindEcho || m.payload.Value != 42 || m.payload.Origin != 0 {
			t.Errorf("dishonest echo %v", m.payload)
		}
	}
	// Second init from the same sender: ignored.
	api.sent = nil
	s.Deliver(api, 0, types.Payload{Kind: types.KindInit, Value: 43, Origin: 0})
	if len(api.sent) != 0 {
		t.Error("echoed a second init for the same sender")
	}
}

func TestEchoSplitterSplitsEchoValues(t *testing.T) {
	api := newRecordingAPI(2, 6)
	s := NewEchoSplitter(0)
	s.Start(api)
	api.sent = nil
	s.Deliver(api, 1, types.Payload{Kind: types.KindInit, Value: 5, Origin: 1})
	if len(api.sent) != 6 {
		t.Fatalf("sent %d echoes, want 6", len(api.sent))
	}
	values := map[types.Value]bool{}
	for _, m := range api.sent {
		if m.payload.Kind != types.KindEcho || m.payload.Origin != 1 {
			t.Errorf("bad echo %v", m.payload)
		}
		values[m.payload.Value] = true
	}
	if len(values) < 2 {
		t.Error("splitter did not send distinct values to distinct recipients")
	}
}

func TestRandomNoiseIsBounded(t *testing.T) {
	api := newRecordingAPI(0, 4)
	s := NewRandomNoise(3)
	s.MaxMessages = 10
	s.Start(api)
	for i := 0; i < 100; i++ {
		s.Deliver(api, 1, types.Payload{Kind: types.KindInput, Value: 1})
	}
	if len(api.sent) != 10 {
		t.Errorf("noise sent %d messages, cap is 10", len(api.sent))
	}
	for _, m := range api.sent {
		if int(m.to) < 0 || int(m.to) >= 4 {
			t.Errorf("noise sent to invalid recipient %v", m.to)
		}
	}
}

func TestConstructionPreconditions(t *testing.T) {
	if _, err := Lemma33ProtocolA(8, 2, 4); err == nil {
		t.Error("Lemma33 accepted a point outside its region (k*t <= (k-1)*n)")
	}
	if _, err := Lemma32FloodMin(8, 3, 2); err == nil {
		t.Error("Lemma32 accepted t < k")
	}
	if _, err := Lemma32FloodMin(8, 2, 4); err == nil {
		t.Error("Lemma32 accepted n < 2t+1")
	}
	if _, err := Lemma39ProtocolA(8, 2, 1); err == nil {
		t.Error("Lemma39 accepted t < k")
	}
	if _, err := Lemma43ProtocolF(8, 2, 3); err == nil {
		t.Error("Lemma43 accepted 2t < n")
	}
	if _, err := Lemma49ProtocolE(8, 2, 0); err == nil {
		t.Error("Lemma49 accepted t < 1")
	}
}

func TestLemma33GroupSizesMatchProof(t *testing.T) {
	const n, k, tt = 12, 2, 7 // k*t = 14 > (k-1)*n = 12
	cons, err := Lemma33ProtocolA(n, k, tt)
	if err != nil {
		t.Fatal(err)
	}
	// k groups of n-t plus a non-empty remainder partition all n processes,
	// visible through the inputs: values 1..k over blocks of n-t, then k+1.
	counts := map[types.Value]int{}
	for _, v := range cons.MP.Inputs {
		counts[v]++
	}
	for g := 1; g <= k; g++ {
		if counts[types.Value(g)] != n-tt {
			t.Errorf("group %d has %d members, want n-t=%d", g, counts[types.Value(g)], n-tt)
		}
	}
	if rest := counts[types.Value(k+1)]; rest != n-k*(n-tt) {
		t.Errorf("remainder group has %d members, want %d", rest, n-k*(n-tt))
	}
}

func TestGarbageWriterStaysInOwnRegisters(t *testing.T) {
	// The smmem API only exposes writes to the caller's own registers, so
	// this is a compile-time property; the behavioural check is that the
	// writer terminates after its configured rounds.
	g := NewGarbageWriter(5)
	if g.Rounds != 5 {
		t.Fatalf("rounds = %d", g.Rounds)
	}
}
