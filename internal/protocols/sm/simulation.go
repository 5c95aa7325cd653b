package sm

import (
	"fmt"
	"strconv"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// Simulation is the paper's SIMULATION transformation (Section 4): it runs
// any message-passing protocol over single-writer registers.
//
//	"Whenever protocol X prescribes that p send its i-th message m to
//	process q, p writes m to a single-writer single-reader register
//	designated for p's i-th message to q; q repeatedly reads the register
//	until it reads a value there. Similarly [for broadcasts with a
//	single-writer multi-reader register per broadcast]."
//
// Register layout (owner p):
//
//	Reg{p, "bc/", i}      p's i-th broadcast
//	Reg{p, "msg/<q>/", i} p's i-th point-to-point message to q
//
// Registers are written at most once by construction, so polling readers
// see each message exactly once by moving each channel's register on by its
// index. "Repeatedly reads" is one API.Poll over every channel's next
// register, smmem.Reg{peer, "bc/", i} or {peer, "msg/<me>/", i}, going on
// after a hit from the channel it hit, so the reads are those of draining
// each peer's broadcasts, then its messages to me, in turn. The poll's
// handler delivers the message, drains the self-sends, moves the channel's
// Index on and writes what the inner protocol sent; those writes are
// the process's next operations, then the poll goes on. So SIMULATION is an
// adapter between two step interfaces: the inner protocol's Start and
// Deliver run inside the process's Start and the poll's handler. The
// handler never ends the poll: the wrapper keeps polling (and therefore
// keeps the inner protocol echoing and helping) until the runtime stops the
// run; this matches the paper's remark that its Byzantine protocols
// terminate in the sense that correct processes decide, not that they stop.
//
// Because even a Byzantine process can only write its own registers, the
// transformation preserves sender authenticity exactly as the
// message-passing network does.
//
// Restart contract, as in internal/protocols/mp: Start begins a fresh run.
// A Simulation that ran before — to its end, or cut off by a crash, the
// operation budget or a panic — and is started again, with the same or
// another n, t and k, forgets that run, restarts its Inner protocol, and
// behaves as a new one would. It keeps only the memory of its state: the
// channel list, the queues, the message counts (rebuilt when n changes), the
// family of the messages to it and its poll handler, bound once. So a run
// arena may hand the same instances to one run after another
// (internal/harness does, for a cell's witness).
type Simulation struct {
	// Inner is the message-passing protocol instance to run.
	Inner mpnet.Protocol

	api simAPI // the inner protocol's API
	me  types.ProcessID

	bcSeq int // own broadcasts written
	// toq[q] is the family of the messages to q and msgSeq[q] counts those
	// written; both are made at the first point-to-point send of a run with
	// another n than the last, toq[q] at the first one to q.
	toq    []string
	msgSeq []int

	// Channel 2j is the j-th peer's broadcasts, 2j+1 its messages to me;
	// chans[c] is channel c's next register, its Index the messages read.
	chans []smmem.Reg
	// toMe is the family of the messages to me, made when me changes, and
	// hit the poll's handler, s.deliver bound at the first Start.
	toMe string
	hit  func(int, types.Payload) bool
}

var _ smmem.Protocol = (*Simulation)(nil)

// broadcasts is the family of every process's broadcast registers.
const broadcasts = "bc/"

// messagesTo is the family of every process's point-to-point messages to q.
func messagesTo(q types.ProcessID) string { return "msg/" + strconv.Itoa(int(q)) + "/" }

// NewSimulation wraps one process's message-passing protocol instance.
func NewSimulation(inner mpnet.Protocol) *Simulation { return &Simulation{Inner: inner} }

// outMsg is one queued outbound message of the inner protocol.
type outMsg struct {
	broadcast bool
	to        types.ProcessID
	payload   types.Payload
}

// simAPI adapts the shared-memory API to mpnet.API for the inner protocol.
// Sends are queued and flushed to registers by the wrapper; self-sends
// short-circuit through a local queue, matching the immediate self-delivery
// of the message-passing runtime.
type simAPI struct {
	sm        smmem.API
	outbox    []outMsg
	selfQueue []types.Payload
}

var _ mpnet.API = (*simAPI)(nil)

func (a *simAPI) ID() types.ProcessID { return a.sm.ID() }
func (a *simAPI) N() int              { return a.sm.N() }
func (a *simAPI) T() int              { return a.sm.T() }
func (a *simAPI) K() int              { return a.sm.K() }
func (a *simAPI) Input() types.Value  { return a.sm.Input() }
func (a *simAPI) HasDecided() bool    { return a.sm.HasDecided() }
func (a *simAPI) Rand() *prng.Source  { return a.sm.Rand() }
func (a *simAPI) Decide(v types.Value) {
	a.sm.Decide(v)
}

// Send queues p for process to. A send to an id outside 0..n-1 is a bug in
// the simulated protocol; it panics here, naming the sender, rather than
// when the outbox is flushed.
func (a *simAPI) Send(to types.ProcessID, p types.Payload) {
	if to == a.sm.ID() {
		a.selfQueue = append(a.selfQueue, p)
		return
	}
	if n := a.sm.N(); int(to) < 0 || int(to) >= n {
		panic(fmt.Sprintf("sm: SIMULATION: %s sent to id %d, outside 0..%d for n=%d", a.sm.ID(), to, n-1, n))
	}
	a.outbox = append(a.outbox, outMsg{to: to, payload: p})
}

func (a *simAPI) Broadcast(p types.Payload) {
	a.selfQueue = append(a.selfQueue, p)
	a.outbox = append(a.outbox, outMsg{broadcast: true, payload: p})
}

// Start implements smmem.Protocol.
func (s *Simulation) Start(api smmem.API) {
	n, me := api.N(), api.ID()
	if s.toMe == "" || me != s.me {
		s.toMe = messagesTo(me)
	}
	s.me = me
	s.api = simAPI{sm: api, outbox: s.api.outbox[:0], selfQueue: s.api.selfQueue[:0]}
	s.bcSeq = 0
	if len(s.msgSeq) == n {
		clear(s.msgSeq)
	} else {
		s.toq, s.msgSeq = nil, nil
	}

	s.Inner.Start(&s.api)
	s.drainSelf()
	s.flush()
	if n == 1 {
		return // no peers to poll; everything already happened locally
	}

	if cap(s.chans) < 2*(n-1) {
		s.chans = make([]smmem.Reg, 0, 2*(n-1))
	}
	s.chans = s.chans[:0]
	for q := 0; q < n; q++ {
		if peer := types.ProcessID(q); peer != me {
			s.chans = append(s.chans, smmem.Reg{Owner: peer, Name: broadcasts}, smmem.Reg{Owner: peer, Name: s.toMe})
		}
	}
	if s.hit == nil {
		s.hit = s.deliver
	}
	// The handler never ends the poll: the runtime stops this process once
	// every correct process has decided (or the operation budget runs out).
	api.Poll(0, s.chans, s.hit, nil)
}

// deliver is the poll's handler: it hands the message found on channel c to
// the inner protocol, drains the self-sends, moves the channel on and writes
// what the inner protocol sent. The poll goes on from the channel.
func (s *Simulation) deliver(c int, p types.Payload) bool {
	s.Inner.Deliver(&s.api, s.chans[c].Owner, p)
	s.drainSelf()
	s.chans[c].Index++
	s.flush()
	return true
}

// Both queues are walked by index and then truncated, never resliced from
// the front, so the next append reuses the backing array. A handler may
// enqueue more self-sends while draining; the walk picks those up.
func (s *Simulation) drainSelf() {
	a := &s.api
	for qi := 0; qi < len(a.selfQueue); qi++ {
		s.Inner.Deliver(a, s.me, a.selfQueue[qi])
	}
	a.selfQueue = a.selfQueue[:0]
}

func (s *Simulation) flush() {
	a := &s.api
	for qi := 0; qi < len(a.outbox); qi++ {
		m := a.outbox[qi]
		if m.broadcast {
			a.sm.Write(broadcasts, s.bcSeq, m.payload)
			s.bcSeq++
			continue
		}
		if s.toq == nil {
			n := a.sm.N()
			s.toq, s.msgSeq = make([]string, n), make([]int, n)
		}
		if s.toq[m.to] == "" {
			s.toq[m.to] = messagesTo(m.to)
		}
		a.sm.Write(s.toq[m.to], s.msgSeq[m.to], m.payload)
		s.msgSeq[m.to]++
	}
	a.outbox = a.outbox[:0]
}
