package mp

import (
	"kset/internal/mpnet"
	"kset/internal/theory"
	"kset/internal/types"
)

// echoKey identifies one candidate (origin, value) pair in the l-echo
// broadcast: "value claimed to have been broadcast by origin".
type echoKey struct {
	origin types.ProcessID
	value  types.Value
}

// echoCandidate is the tally of one candidate: who has echoed it, and
// whether the host has already acted on it.
type echoCandidate struct {
	value    types.Value
	echoers  idSet
	accepted bool
}

// echoTally counts, per candidate (origin, value), the distinct processes
// that echoed it. It is the bookkeeping the l-echo broadcast and Protocol D
// share.
//
// A correct origin has one candidate value, and a Byzantine echoer adds
// another for any origin by echoing a value it never sent, so each origin in
// 0..origins-1 has a short list that is searched by value; the first entry
// of every list and its echoer bitset are carved out of two blocks allocated
// up front. A list that grew past one entry keeps its array, and the later
// entries their bitsets, for the next run. An origin outside that range is
// payload nobody vouched for (see idSet): its candidates live in a map, as
// all of them used to.
type echoTally struct {
	n        int // echoer sets are dense in 0..n-1
	byOrigin [][]echoCandidate
	words    []uint64
	over     map[echoKey]*echoCandidate
}

// reset empties the tally for origins 0..origins-1 and echoers 0..n-1, on
// its blocks and lists when they are large enough.
func (t *echoTally) reset(origins, n int) {
	t.n = n
	if cap(t.byOrigin) < origins {
		t.byOrigin = make([][]echoCandidate, origins)
		first := make([]echoCandidate, origins)
		for o := range t.byOrigin {
			// Room for one: the first candidate lands in the block.
			t.byOrigin[o] = first[o : o : o+1]
		}
	}
	t.byOrigin = t.byOrigin[:origins]
	for o := range t.byOrigin {
		t.byOrigin[o] = t.byOrigin[o][:0]
	}
	t.words = zeroed(t.words, origins*idWords(n))
	clear(t.over)
}

// add records that from echoed value for origin. It returns the candidate,
// valid until the next add, or nil when from had echoed it before.
func (t *echoTally) add(origin types.ProcessID, value types.Value, from types.ProcessID) *echoCandidate {
	c := t.candidate(origin, value)
	if !c.echoers.add(from) {
		return nil
	}
	return c
}

func (t *echoTally) candidate(origin types.ProcessID, value types.Value) *echoCandidate {
	if uint(origin) >= uint(len(t.byOrigin)) {
		key := echoKey{origin: origin, value: value}
		c := t.over[key]
		if c == nil {
			if t.over == nil {
				t.over = make(map[echoKey]*echoCandidate)
			}
			c = &echoCandidate{value: value, echoers: makeIDSet(t.n, nil)}
			t.over[key] = c
		}
		return c
	}
	cands := t.byOrigin[origin]
	for i := range cands {
		if cands[i].value == value {
			return &cands[i]
		}
	}
	if len(cands) < cap(cands) {
		// A slot an earlier run filled: its bitset is reused below.
		cands = cands[:len(cands)+1]
	} else {
		cands = append(cands, echoCandidate{})
	}
	t.byOrigin[origin] = cands
	c := &cands[len(cands)-1]
	w := idWords(t.n)
	words := t.words[int(origin)*w : (int(origin)+1)*w]
	if len(cands) > 1 {
		words = zeroed(c.echoers.bits, w)
	}
	*c = echoCandidate{value: value, echoers: makeIDSet(t.n, words)}
	return c
}

// EchoBroadcast implements the paper's l-echo broadcast, the generalization
// of Bracha and Toueg's echo broadcast defined before Lemma 3.14:
//
//	To l-echo broadcast m, the sender sends <init, s, m> to all. On the
//	first <init, s, m> from s, a process sends <echo, s, m> to all;
//	subsequent inits from s are ignored. A process accepts m as sent by s
//	once it receives <echo, s, m> from more than (n + l*t)/(l + 1)
//	processes.
//
// Lemma 3.14 guarantees, for t < l*n/(2l+1): correct processes accept at
// most l different messages per sender, and if the sender is correct every
// correct process accepts its message.
//
// EchoBroadcast is a component: protocols feed it every incoming message via
// Handle and receive acceptances through the OnAccept callback. It keeps
// echoing after the host protocol decides, providing the "help" the paper's
// Byzantine protocols require.
type EchoBroadcast struct {
	// L is the echo parameter l >= 1 (1 reproduces Bracha-Toueg).
	L int
	// OnAccept is invoked each time a (origin, value) pair crosses the
	// acceptance threshold, at most once per pair.
	OnAccept func(origin types.ProcessID, v types.Value)

	// Built by start: a host's Start, or else the first Handle, which is the
	// first call to see n and t.
	tally     *echoTally
	echoed    idSet
	threshold int
}

// NewEchoBroadcast constructs the component for one process.
func NewEchoBroadcast(l int, onAccept func(types.ProcessID, types.Value)) *EchoBroadcast {
	return &EchoBroadcast{L: l, OnAccept: onAccept}
}

// start readies the component for a fresh run of api's n and t, reusing the
// memory of the last run's state.
func (e *EchoBroadcast) start(api mpnet.API) {
	n := api.N()
	if e.tally == nil {
		e.tally = new(echoTally)
	}
	e.tally.reset(n, n)
	e.echoed.reset(n)
	e.threshold = theory.EchoAcceptThreshold(n, api.T(), e.L)
}

// Broadcast l-echo-broadcasts value v from this process.
func (e *EchoBroadcast) Broadcast(api mpnet.API, v types.Value) {
	api.Broadcast(types.Payload{Kind: types.KindInit, Value: v, Origin: api.ID()})
}

// Handle processes one incoming message; it ignores kinds it does not own,
// so hosts may feed it their entire message stream.
func (e *EchoBroadcast) Handle(api mpnet.API, from types.ProcessID, p types.Payload) {
	if e.tally == nil {
		e.start(api)
	}
	switch p.Kind {
	case types.KindInit:
		// The network authenticates senders, so the init's origin is its
		// sender; a Byzantine process cannot initiate on another's behalf.
		if !e.echoed.add(from) {
			return
		}
		api.Broadcast(types.Payload{Kind: types.KindEcho, Value: p.Value, Origin: from})
	case types.KindEcho:
		c := e.tally.add(p.Origin, p.Value, from)
		if c == nil || c.accepted {
			return
		}
		if c.echoers.count >= e.threshold {
			c.accepted = true
			if e.OnAccept != nil {
				e.OnAccept(p.Origin, p.Value)
			}
		}
	}
}
