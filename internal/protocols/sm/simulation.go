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
// see each message exactly once by advancing a cursor per channel.
// "Repeatedly reads" is one API.Poll over every channel's next register,
// resumed after a hit from the channel it hit, so the reads are those of
// draining each peer's broadcasts, then its messages to me, in turn; a read
// that misses costs no switch into this process. The wrapper keeps polling
// (and therefore keeps the inner protocol echoing and helping) until the
// runtime halts the run; this matches the paper's remark that its Byzantine
// protocols terminate in the sense that correct processes decide, not that
// they stop.
//
// Because even a Byzantine process can only write its own registers, the
// transformation preserves sender authenticity exactly as the
// message-passing network does.
type Simulation struct {
	// Inner is the message-passing protocol instance to run.
	Inner mpnet.Protocol
}

var _ smmem.Protocol = (*Simulation)(nil)

// NewSimulation wraps one process's message-passing protocol instance.
func NewSimulation(inner mpnet.Protocol) *Simulation { return &Simulation{Inner: inner} }

// outMsg is one queued outbound message of the inner protocol.
type outMsg struct {
	broadcast bool
	to        types.ProcessID
	payload   types.Payload
}

// simAPI adapts the shared-memory API to mpnet.API for the inner protocol.
// Sends are queued and flushed to registers by the wrapper loop; self-sends
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
// prefix+"1", ...: each is built once, however many peers' cursors pass it and
// however often a poll finds it unwritten.
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

// Run implements smmem.Protocol.
func (s *Simulation) Run(api smmem.API) {
	n := api.N()
	me := api.ID()
	a := &simAPI{sm: api}

	// Everyone numbers broadcasts the same way, so one table serves this
	// process's own writes and its cursor into every peer; likewise the
	// messages addressed to it.
	bc := registerNames{prefix: "bc/"}
	p2p := registerNames{prefix: "msg/" + strconv.Itoa(int(me)) + "/"}

	bcSeq := 0               // own broadcasts written
	msgSeq := make([]int, n) // own p2p messages written, per destination

	// Both queues are walked by index and then truncated, never resliced
	// from the front, so the next append reuses the backing array. A handler
	// may enqueue more self-sends while draining; the walk picks those up.
	drainSelf := func() {
		for qi := 0; qi < len(a.selfQueue); qi++ {
			s.Inner.Deliver(a, me, a.selfQueue[qi])
		}
		a.selfQueue = a.selfQueue[:0]
	}

	flush := func() {
		for qi := 0; qi < len(a.outbox); qi++ {
			m := a.outbox[qi]
			if m.broadcast {
				api.Write(bc.at(bcSeq), m.payload)
				bcSeq++
			} else {
				api.Write("msg/"+strconv.Itoa(int(m.to))+"/"+strconv.Itoa(msgSeq[m.to]), m.payload)
				msgSeq[m.to]++
			}
		}
		a.outbox = a.outbox[:0]
	}

	s.Inner.Start(a)
	drainSelf()
	flush()
	if n == 1 {
		return // no peers to poll; everything already happened locally
	}

	// Channel 2j is the j-th peer's broadcasts, 2j+1 its messages to me;
	// chans[c] is channel c's next register, cursor[c] its messages read.
	chans := make([]smmem.Reg, 0, 2*(n-1))
	for q := 0; q < n; q++ {
		if peer := types.ProcessID(q); peer != me {
			chans = append(chans, smmem.Reg{Owner: peer, Name: bc.at(0)}, smmem.Reg{Owner: peer, Name: p2p.at(0)})
		}
	}
	cursor, names := make([]int, len(chans)), [2]*registerNames{&bc, &p2p}
	// Loop forever: the runtime unwinds this process once every correct
	// process has decided (or the operation budget runs out).
	for c := 0; ; {
		var p types.Payload
		c, p = api.Poll(c, chans)
		s.Inner.Deliver(a, chans[c].Owner, p)
		drainSelf()
		flush()
		cursor[c]++
		chans[c].Name = names[c%2].at(cursor[c])
	}
}
