package mp

import (
	"kset/internal/mpnet"
	"kset/internal/types"
)

// ProtocolC is the paper's PROTOCOL C(l): each process l-echo-broadcasts its
// input and waits until it has accepted messages from n-t distinct senders,
// its own among them. If at least n-2t of those accepted messages carry the
// same value as its own input v, it decides v; otherwise it decides the
// default value v0.
//
// Claim: SC(k, t, SV2) in MP/Byz for t < (k-1)n/(2k+l-1) and t < ln/(2l+1)
// (Lemma 3.15). Via SIMULATION it also covers SM/Byz (Lemma 4.11).
//
// If a Byzantine sender manages to get several values accepted, only the
// first accepted value per sender is counted, matching the proof's
// accounting of "sets g_i of at least n-2t processes such that p_j accepts a
// value v_i from each process in g_i".
type ProtocolC struct {
	// L is the echo parameter; must be >= 1.
	L int
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value

	echo        *EchoBroadcast
	accepted    firstPerSender
	ownAccepted bool
	pending     mpnet.API // api captured during callback dispatch
}

var _ mpnet.Protocol = (*ProtocolC)(nil)

// NewProtocolC constructs a Protocol C(l) instance for one process.
func NewProtocolC(l int) *ProtocolC {
	if l < 1 {
		panic("mp: ProtocolC requires l >= 1")
	}
	return &ProtocolC{L: l, Default: types.DefaultValue}
}

// Start implements mpnet.Protocol.
func (c *ProtocolC) Start(api mpnet.API) {
	c.accepted.reset(api.N())
	c.ownAccepted = false
	if c.echo == nil {
		c.echo = NewEchoBroadcast(c.L, func(origin types.ProcessID, v types.Value) {
			c.onAccept(c.pending, origin, v)
		})
	}
	c.echo.L = c.L
	c.echo.start(api)
	c.echo.Broadcast(api, api.Input())
}

// Deliver implements mpnet.Protocol.
func (c *ProtocolC) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	c.pending = api
	c.echo.Handle(api, from, p)
	c.pending = nil
}

func (c *ProtocolC) onAccept(api mpnet.API, origin types.ProcessID, v types.Value) {
	if !c.accepted.add(origin, v) {
		return
	}
	if origin == api.ID() {
		c.ownAccepted = true
	}
	if api.HasDecided() {
		return
	}
	n, t := api.N(), api.T()
	if c.accepted.count() < n-t || !c.ownAccepted {
		return
	}
	if c.accepted.countValue(api.Input()) >= n-2*t {
		api.Decide(api.Input())
	} else {
		api.Decide(c.Default)
	}
}
