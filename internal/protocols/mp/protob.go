package mp

import (
	"kset/internal/mpnet"
	"kset/internal/types"
)

// ProtocolB is the paper's PROTOCOL B: each process broadcasts its input and
// waits for messages from n-t distinct processes, one of which is its own.
// If at least n-2t of them carry the same value as its own input v, it
// decides v, otherwise it decides the default value v0.
//
// Claim: SC(k, t, SV2) in MP/CR for t < (k-1)n/(2k) (Lemma 3.8). Via
// SIMULATION it also solves SC(k, t, SV2) in SM/CR (Lemma 4.6).
type ProtocolB struct {
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value

	rcvd firstPerSender
}

var _ mpnet.Protocol = (*ProtocolB)(nil)

// NewProtocolB constructs a Protocol B instance for one process.
func NewProtocolB() *ProtocolB { return &ProtocolB{Default: types.DefaultValue} }

// Start implements mpnet.Protocol.
func (b *ProtocolB) Start(api mpnet.API) {
	b.rcvd.reset(api.N())
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

// Deliver implements mpnet.Protocol.
func (b *ProtocolB) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	if p.Kind != types.KindInput {
		return
	}
	if !b.rcvd.add(from, p.Value) {
		return
	}
	if api.HasDecided() {
		return
	}
	n, t := api.N(), api.T()
	if b.rcvd.count() < n-t {
		return
	}
	// The process's own message is always among the first n-t recorded:
	// self-delivery is immediate in the runtime, so rcvd contains it.
	if b.rcvd.countValue(api.Input()) >= n-2*t {
		api.Decide(api.Input())
	} else {
		api.Decide(b.Default)
	}
}
