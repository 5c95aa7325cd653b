package sm

import (
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
//	bc/<i>      p's i-th broadcast
//	msg/<q>/<i> p's i-th point-to-point message to q
//
// Registers are written at most once by construction, so polling readers
// see each message exactly once by moving each channel's register on by its
// index. "Repeatedly reads" is one API.Poll over every channel's next
// register, smmem.Reg{peer, "bc/", i} or {peer, "msg/<me>/", i}, going on
// after a hit from the channel it hit, so the reads are those of draining
// each peer's broadcasts, then its messages to me, in turn. The poll's
// handler delivers the message, drains the self-sends, moves the channel's
// Index on and writes what the inner protocol sent; those writes are
// the process's next operations, then the poll goes on. The handler never
// ends the poll, so after the writes of the inner protocol's Start no read
// or write switches into this process. The wrapper keeps polling (and therefore keeps
// the inner protocol echoing and helping) until the runtime halts the run;
// this matches the paper's remark that its Byzantine protocols terminate in
// the sense that correct processes decide, not that they stop.
//
// Because even a Byzantine process can only write its own registers, the
// transformation preserves sender authenticity exactly as the
// message-passing network does.
type Simulation struct {
	// Inner is the message-passing protocol instance to run.
	Inner mpnet.Protocol
}

var _ smmem.Protocol = (*Simulation)(nil)

// broadcasts is the family of every process's broadcast registers.
const broadcasts = "bc/"

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

func (a *simAPI) Send(to types.ProcessID, p types.Payload) {
	if to == a.sm.ID() {
		a.selfQueue = append(a.selfQueue, p)
		return
	}
	a.outbox = append(a.outbox, outMsg{to: to, payload: p})
}

func (a *simAPI) Broadcast(p types.Payload) {
	a.selfQueue = append(a.selfQueue, p)
	a.outbox = append(a.outbox, outMsg{broadcast: true, payload: p})
}

// registerNames is a numbered register sequence's names, prefix+"0",
// prefix+"1", ...: the texts of one process's writes, each built once.
type registerNames struct {
	prefix string
	made   []string
}

func (r *registerNames) at(i int) string {
	for len(r.made) <= i {
		r.made = append(r.made, r.prefix+strconv.Itoa(len(r.made)))
	}
	return r.made[i]
}

// simRun is one process's SIMULATION: the inner protocol's API, the names
// and counts of its writes, and its poll over the incoming channels. It is
// one allocation, and its deliver method the poll's handler.
type simRun struct {
	inner mpnet.Protocol
	api   simAPI
	me    types.ProcessID

	bc    registerNames // own broadcasts
	bcSeq int           // own broadcasts written
	// sent[q] names the messages to q and msgSeq[q] counts those written;
	// both are made at the first point-to-point send, sent[q]'s prefix at
	// the first one to q.
	sent   []registerNames
	msgSeq []int

	// Channel 2j is the j-th peer's broadcasts, 2j+1 its messages to me;
	// chans[c] is channel c's next register, its Index the messages read.
	chans []smmem.Reg
}

// Run implements smmem.Protocol.
func (s *Simulation) Run(api smmem.API) {
	n, me := api.N(), api.ID()
	r := &simRun{inner: s.Inner, me: me, bc: registerNames{prefix: broadcasts}}
	r.api.sm = api

	r.inner.Start(&r.api)
	r.drainSelf()
	r.flush()
	if n == 1 {
		return // no peers to poll; everything already happened locally
	}

	toMe := "msg/" + strconv.Itoa(int(me)) + "/"
	r.chans = make([]smmem.Reg, 0, 2*(n-1))
	for q := 0; q < n; q++ {
		if peer := types.ProcessID(q); peer != me {
			r.chans = append(r.chans, smmem.Reg{Owner: peer, Name: broadcasts}, smmem.Reg{Owner: peer, Name: toMe})
		}
	}
	// The handler never ends the poll, so it never returns: the runtime
	// unwinds this process once every correct process has decided (or the
	// operation budget runs out).
	api.Poll(0, r.chans, r.deliver)
}

// deliver is the poll's handler: it hands the message found on channel c to
// the inner protocol, drains the self-sends, moves the channel on and writes
// what the inner protocol sent. The poll goes on from the channel.
func (r *simRun) deliver(c int, p types.Payload) bool {
	r.inner.Deliver(&r.api, r.chans[c].Owner, p)
	r.drainSelf()
	r.chans[c].Index++
	r.flush()
	return true
}

// Both queues are walked by index and then truncated, never resliced from
// the front, so the next append reuses the backing array. A handler may
// enqueue more self-sends while draining; the walk picks those up.
func (r *simRun) drainSelf() {
	a := &r.api
	for qi := 0; qi < len(a.selfQueue); qi++ {
		r.inner.Deliver(a, r.me, a.selfQueue[qi])
	}
	a.selfQueue = a.selfQueue[:0]
}

func (r *simRun) flush() {
	a := &r.api
	for qi := 0; qi < len(a.outbox); qi++ {
		m := a.outbox[qi]
		if m.broadcast {
			a.sm.Write(r.bc.at(r.bcSeq), m.payload)
			r.bcSeq++
			continue
		}
		if r.sent == nil {
			n := a.sm.N()
			r.sent, r.msgSeq = make([]registerNames, n), make([]int, n)
		}
		to := &r.sent[m.to]
		if to.prefix == "" {
			to.prefix = "msg/" + strconv.Itoa(int(m.to)) + "/"
		}
		a.sm.Write(to.at(r.msgSeq[m.to]), m.payload)
		r.msgSeq[m.to]++
	}
	a.outbox = a.outbox[:0]
}
