// Package mpnet implements the paper's asynchronous message-passing model
// (Section 3) as a deterministic event-level simulator.
//
// The model: n processes connected by a complete, reliable network. Messages
// are not lost, duplicated, or forged (the sender identity on a delivered
// message is authentic, even for Byzantine senders), but delivery delay is
// arbitrary and finite. The simulator realizes "arbitrary delay" by letting
// an adversarial scheduler choose, at every step, which in-flight message to
// deliver next. A run is therefore a pure function of (protocol, parameters,
// adversary, seed) and any interesting run can be replayed from its seed.
//
// Crash failures stop a process between events or in the middle of a
// broadcast (so a broadcast may reach only a subset of recipients), matching
// the paper's "a faulty process executes only finitely many instructions".
// Byzantine failures replace a process's protocol with an arbitrary strategy;
// the network still stamps its true identity on its messages.
package mpnet

import (
	"kset/internal/prng"
	"kset/internal/types"
)

// Protocol is the event-driven behaviour of one process. Implementations
// must be deterministic functions of the delivered events and the API state;
// Byzantine strategies may additionally use API.Rand.
//
// Protocol methods are called by a single goroutine; implementations need no
// locking.
type Protocol interface {
	// Start is called once, before any delivery, and typically broadcasts
	// the process input.
	Start(api API)
	// Deliver is called for each message received. from is the authentic
	// sender identity.
	Deliver(api API, from types.ProcessID, p types.Payload)
}

// API is the interface the runtime hands to protocol code.
type API interface {
	// ID returns this process's identity.
	ID() types.ProcessID
	// N returns the number of processes.
	N() int
	// T returns the declared failure bound t.
	T() int
	// K returns the agreement bound k.
	K() int
	// Input returns this process's input value.
	Input() types.Value
	// Send transmits p to process `to`. Sending to self enqueues an
	// immediate local delivery (a process always hears itself without
	// network delay, as the paper's protocols assume when they count the
	// process's own message).
	Send(to types.ProcessID, p types.Payload)
	// Broadcast sends p to every process, itself included.
	Broadcast(p types.Payload)
	// Decide records this process's irrevocable decision. A correct
	// process must call it at most once; the runtime reports a protocol
	// bug otherwise.
	Decide(v types.Value)
	// HasDecided reports whether Decide has been called.
	HasDecided() bool
	// Rand returns this process's private deterministic random stream.
	// Correct protocols in this reproduction do not use it; Byzantine
	// strategies may.
	Rand() *prng.Source
}

// Envelope is an in-flight message as seen by schedulers.
type Envelope struct {
	From    types.ProcessID
	To      types.ProcessID
	Payload types.Payload
	// Seq is the global send sequence number, which schedulers may use for
	// FIFO-like policies.
	Seq int
}

// View exposes run state to schedulers and adversaries. Slices are owned by
// the runtime and must not be mutated.
type View struct {
	N        int
	T        int
	K        int
	Decided  []bool
	Crashed  []bool
	Faulty   []bool // crashed or Byzantine
	Events   int    // deliveries performed so far
	Messages int    // messages sent so far
	// Changes counts what can move Decided, Crashed and Faulty: every
	// decision, every crash, and the start of every run. It only grows, also
	// across the runs of one Runner, whose View is one value at one address
	// in every run, so the pair (view, Changes) names the state of those
	// slices: a scheduler that keeps an answer worked out from them may keep
	// it while it sees the same View with the same Changes.
	Changes uint64
}

// Scheduler chooses the next in-flight message to deliver: Next returns a
// position in pool.Envelopes(). Returning a position outside [0, pool.Len())
// is a programming error and aborts the run. The runtime guarantees the pool
// is non-empty when Next is called.
//
// Cost contract. Next runs once per delivery, so it is the simulator's inner
// loop, and a run must stay a function of its seed:
//   - a pick costs O(1), or O(n*n/64) for a question about channels and
//     O(in flight/64) for a filtered draw, never O(in flight): a policy about
//     age, sequence numbers or channels asks the pool's index (Oldest,
//     Newest, IndexOf, Channels, ChannelHead), and a policy that filters
//     envelopes draws through Pool.PickAmong, which asks the filter about
//     each message once and not once per pick;
//   - anything per process or per group (a gate, a decided-set) is worked
//     out in O(n) at most once per call, before the draw. It is a function
//     of the View's slices, which move only when View.Changes does, so a
//     policy on the sweep's path (GroupGate) keeps its answer with the View
//     and Changes it saw and works it out again only when either differs
//     (a new run, a decision, a crash); one that keeps no such state
//     (DelayProcess) can be shared by runs that go on at once;
//   - it allocates nothing, keeping any scratch it needs on the scheduler;
//   - it draws from rng only what the choice needs, in a fixed order.
type Scheduler interface {
	Next(view *View, pool *Pool, rng *prng.Source) int
}

// CrashAdversary injects crash failures. The runtime enforces the global
// fault budget: once t processes have crashed (or are Byzantine), further
// crash requests are ignored, so adversaries may be sloppy about counting.
type CrashAdversary interface {
	// CrashBeforeDeliver is consulted before delivering an event to p
	// (Start counts as the first event, with eventIndex 0). Returning true
	// crashes p instead of delivering.
	CrashBeforeDeliver(view *View, p types.ProcessID, eventIndex int) bool
	// CrashDuringSend is consulted before each point-to-point transmission
	// by p, including each constituent send of a broadcast; sendIndex
	// counts p's transmissions. Returning true crashes p immediately: this
	// send and everything after it are lost, so a broadcast is truncated
	// mid-flight.
	CrashDuringSend(view *View, p types.ProcessID, to types.ProcessID, sendIndex int) bool
}
