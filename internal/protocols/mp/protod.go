package mp

import (
	"kset/internal/mpnet"
	"kset/internal/types"
)

// ProtocolD is the paper's PROTOCOL D for SC(k, t, WV1) in MP/Byz,
// k >= Z(n, t) (Lemma 3.16):
//
//	Processes p1..p_{t+1} each broadcast their input. A process that
//	receives a value v_i from p_i (i in 1..t+1) broadcasts <echo, v_i, p_i>
//	and never echoes a value for p_i again. Each process p1..pk decides its
//	own value. Every other process decides the first value v_i for which it
//	receives identical <echo, v_i, p_i> from n-t processes.
//
// Erratum note (see DESIGN.md §5): the paper's text has "each process
// p1,...,pk decides on its own value", while the agreement proof counts only
// the t+1 broadcast values plus Byzantine-forced acceptances. OwnDeciders
// selects the variant: 0 (default) follows the text (k own-deciders);
// setting it to t+1 restricts own-deciding to the broadcasters, the variant
// the proof's counting matches. The harness exercises both (see
// EXPERIMENTS.md, Figure 4, WV1 panel).
type ProtocolD struct {
	// OwnDeciders is the number of lowest-id processes that decide their
	// own input; 0 means k, per the paper's text.
	OwnDeciders int

	echoedFor idSet
	echoes    *echoTally
}

var _ mpnet.Protocol = (*ProtocolD)(nil)

// NewProtocolD constructs the paper-text variant (p1..pk decide their own
// values).
func NewProtocolD() *ProtocolD { return &ProtocolD{} }

// NewProtocolDBroadcasters constructs the proof-count variant, in which only
// the t+1 broadcasters decide their own values.
func NewProtocolDBroadcasters(t int) *ProtocolD { return &ProtocolD{OwnDeciders: t + 1} }

func (d *ProtocolD) ownDeciders(api mpnet.API) int {
	if d.OwnDeciders > 0 {
		return d.OwnDeciders
	}
	return api.K()
}

// Start implements mpnet.Protocol.
func (d *ProtocolD) Start(api mpnet.API) {
	// Only the broadcasters, ids 0..t, are ever echoed for.
	d.echoedFor = makeIDSet(api.T()+1, nil)
	d.echoes = newEchoTally(api.T()+1, api.N())
	// p1..p_{t+1} broadcast their inputs (ids 0..t).
	if int(api.ID()) <= api.T() {
		api.Broadcast(types.Payload{Kind: types.KindInit, Value: api.Input(), Origin: api.ID()})
	}
	if int(api.ID()) < d.ownDeciders(api) {
		api.Decide(api.Input())
	}
}

// Deliver implements mpnet.Protocol.
func (d *ProtocolD) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	switch p.Kind {
	case types.KindInit:
		// Only values from the designated broadcasters p1..p_{t+1} are
		// echoed, and only the first value per broadcaster.
		if int(from) > api.T() {
			return
		}
		if !d.echoedFor.add(from) {
			return
		}
		api.Broadcast(types.Payload{Kind: types.KindEcho, Value: p.Value, Origin: from})
	case types.KindEcho:
		if int(p.Origin) > api.T() {
			return
		}
		c := d.echoes.add(p.Origin, p.Value, from)
		if c == nil || api.HasDecided() {
			return
		}
		// A process outside the own-deciders accepts the first value with
		// n-t identical echoes and decides it.
		if c.echoers.count >= api.N()-api.T() {
			api.Decide(p.Value)
		}
	}
}
