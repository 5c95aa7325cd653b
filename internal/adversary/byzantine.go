// Package adversary provides the failure behaviours used to stress the
// protocols: Byzantine strategies for the message-passing and shared-memory
// models, and builders for the specific run constructions that appear in the
// paper's impossibility proofs (group isolation, persona equivocation,
// crash-after-decide). The harness package drives these against protocols to
// validate solvable regions and to exhibit concrete violations outside them.
package adversary

import (
	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/types"
)

// Silent is a Byzantine process that never sends anything — observationally
// a process that crashed before starting, the baseline Byzantine behaviour.
type Silent struct{}

var _ mpnet.Protocol = Silent{}

// Start implements mpnet.Protocol.
func (Silent) Start(mpnet.API) {}

// Deliver implements mpnet.Protocol.
func (Silent) Deliver(mpnet.API, types.ProcessID, types.Payload) {}

// PersonaInput is the equivocation strategy of Lemmas 3.9, 3.10 and 3.11:
// toward each recipient the faulty process claims a (possibly different)
// input value, sending a per-recipient KindInput message instead of a
// uniform broadcast. Recipients past the end of Personas receive Default.
// It attacks the input-broadcast protocols (FloodMin, A, B).
type PersonaInput struct {
	// Personas[q] is the input value claimed toward recipient q.
	Personas []types.Value
	// Default is claimed toward recipients past the end of Personas.
	Default types.Value
}

var _ mpnet.Protocol = (*PersonaInput)(nil)

// NewPersonaInput builds the strategy from the per-recipient claims.
func NewPersonaInput(personas []types.Value, dflt types.Value) *PersonaInput {
	return &PersonaInput{Personas: personas, Default: dflt}
}

// Start implements mpnet.Protocol.
func (s *PersonaInput) Start(api mpnet.API) {
	for q := 0; q < api.N(); q++ {
		v := persona(s.Personas, s.Default, q)
		api.Send(types.ProcessID(q), types.Payload{Kind: types.KindInput, Value: v})
	}
}

// Deliver implements mpnet.Protocol.
func (s *PersonaInput) Deliver(mpnet.API, types.ProcessID, types.Payload) {}

// persona is the value claimed toward recipient q: its entry in personas,
// or dflt past the end.
func persona(personas []types.Value, dflt types.Value, q int) types.Value {
	if q < len(personas) {
		return personas[q]
	}
	return dflt
}

// PersonaEcho attacks the echo-based protocols (C(l), D): toward each
// recipient it plays a correct process whose input is the recipient's
// persona — it sends per-recipient init messages and echoes honestly, which
// is the "members of F behave as if they were correct and had v_i initially"
// behaviour of Lemma 3.9's construction.
type PersonaEcho struct {
	// Personas[q] is the input value claimed toward recipient q.
	Personas []types.Value
	// Default is claimed toward recipients past the end of Personas.
	Default types.Value

	echoed []bool
}

var _ mpnet.Protocol = (*PersonaEcho)(nil)

// NewPersonaEcho builds the strategy from the per-recipient claims.
func NewPersonaEcho(personas []types.Value, dflt types.Value) *PersonaEcho {
	return &PersonaEcho{Personas: personas, Default: dflt}
}

// Start implements mpnet.Protocol.
func (s *PersonaEcho) Start(api mpnet.API) {
	s.echoed = resetEchoed(s.echoed, api.N())
	for q := 0; q < api.N(); q++ {
		v := persona(s.Personas, s.Default, q)
		api.Send(types.ProcessID(q), types.Payload{Kind: types.KindInit, Value: v, Origin: api.ID()})
	}
}

// Deliver implements mpnet.Protocol: echo honestly (first init per sender),
// so each persona looks fully plausible to its audience.
func (s *PersonaEcho) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	if p.Kind != types.KindInit || s.echoed[from] {
		return
	}
	s.echoed[from] = true
	api.Broadcast(types.Payload{Kind: types.KindEcho, Value: p.Value, Origin: from})
}

// resetEchoed returns echoed as n false entries, reusing its array.
func resetEchoed(echoed []bool, n int) []bool {
	if cap(echoed) < n {
		return make([]bool, n)
	}
	echoed = echoed[:n]
	clear(echoed)
	return echoed
}

// EchoSplitter attacks the l-echo acceptance rule directly (the counting
// argument in Lemma 3.14's proof): for every init it observes, it echoes a
// *different* fabricated value to each recipient, trying to push several
// (origin, value) pairs over the acceptance threshold.
type EchoSplitter struct {
	// Shift offsets fabricated values so distinct splitters fabricate
	// distinct junk.
	Shift types.Value

	echoed []bool
}

var _ mpnet.Protocol = (*EchoSplitter)(nil)

// NewEchoSplitter builds the strategy.
func NewEchoSplitter(shift types.Value) *EchoSplitter { return &EchoSplitter{Shift: shift} }

// Start implements mpnet.Protocol: announce a junk value of our own.
func (s *EchoSplitter) Start(api mpnet.API) {
	s.echoed = resetEchoed(s.echoed, api.N())
	api.Broadcast(types.Payload{Kind: types.KindInit, Value: 900000 + s.Shift, Origin: api.ID()})
}

// Deliver implements mpnet.Protocol.
func (s *EchoSplitter) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	if p.Kind != types.KindInit || s.echoed[from] {
		return
	}
	s.echoed[from] = true
	for q := 0; q < api.N(); q++ {
		to := types.ProcessID(q)
		// Echo the true value to half the recipients and per-recipient junk
		// to the rest: maximal confusion while staying plausible.
		v := p.Value
		if q%2 == 1 {
			v = 800000 + s.Shift + types.Value(q)
		}
		api.Send(to, types.Payload{Kind: types.KindEcho, Value: v, Origin: from})
	}
}

// RandomNoise sends random payload kinds, values and origins to random
// recipients in response to every delivery — a fuzzing strategy that checks
// protocols tolerate arbitrary garbage without crashing or deadlocking.
//
// The total volume is bounded by MaxMessages: a Byzantine process may
// legally send forever, but two mutually-responding noise processes would
// otherwise amplify each other into an unbounded message storm that
// exhausts any finite event budget before the correct processes' messages
// drain — reporting a termination failure that the real model (where every
// message is delivered in finite time) does not have. A bounded storm
// exercises the same protocol paths.
type RandomNoise struct {
	// Burst is how many messages to emit per delivery (default 2).
	Burst int
	// MaxMessages bounds the total messages sent (default 256).
	MaxMessages int

	sent int
}

var _ mpnet.Protocol = (*RandomNoise)(nil)

// NewRandomNoise builds the strategy.
func NewRandomNoise(burst int) *RandomNoise {
	if burst <= 0 {
		burst = 2
	}
	return &RandomNoise{Burst: burst, MaxMessages: 256}
}

// Start implements mpnet.Protocol.
func (s *RandomNoise) Start(api mpnet.API) { s.spray(api) }

// Deliver implements mpnet.Protocol.
func (s *RandomNoise) Deliver(api mpnet.API, _ types.ProcessID, _ types.Payload) { s.spray(api) }

func (s *RandomNoise) spray(api mpnet.API) {
	rng := api.Rand()
	kinds := []types.MsgKind{types.KindInput, types.KindInit, types.KindEcho}
	for i := 0; i < s.Burst && s.sent < s.MaxMessages; i++ {
		s.sent++
		api.Send(types.ProcessID(rng.Intn(api.N())), types.Payload{
			Kind:   kinds[rng.Intn(len(kinds))],
			Value:  types.Value(rng.Intn(2*api.N())) - types.Value(api.N()),
			Origin: types.ProcessID(rng.Intn(api.N())),
		})
	}
}

// GarbageWriter is a native shared-memory Byzantine strategy: it floods its
// own registers (the only ones it can write) with changing junk, including
// the register names used by Protocols E/F and the SIMULATION layout.
type GarbageWriter struct {
	// Rounds bounds the spam so runs stay finite even if correct processes
	// cannot decide; 0 means 64 rounds.
	Rounds int
}

var _ smmem.Protocol = (*GarbageWriter)(nil)

// NewGarbageWriter builds the strategy.
func NewGarbageWriter(rounds int) *GarbageWriter { return &GarbageWriter{Rounds: rounds} }

// Start implements smmem.Protocol: it queues every write at once. The
// junk comes from the process's private stream, so it is the same whenever
// it is drawn.
func (g *GarbageWriter) Start(api smmem.API) {
	rounds := g.Rounds
	if rounds <= 0 {
		rounds = 64
	}
	rng := api.Rand()
	for i := 0; i < rounds; i++ {
		switch i % 3 {
		case 0:
			api.WriteValue("input", 0, types.Value(rng.Intn(1000))-500)
		case 1:
			api.Write("bc/", 0, types.Payload{
				Kind:   types.KindEcho,
				Value:  types.Value(rng.Intn(1000)),
				Origin: types.ProcessID(rng.Intn(api.N())),
			})
		case 2:
			api.WriteValue("junk", 0, types.Value(i))
		}
	}
}
