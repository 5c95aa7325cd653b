package mp

import (
	"kset/internal/mpnet"
	"kset/internal/types"
)

// ProtocolA is the paper's PROTOCOL A: each process broadcasts its input and
// waits for messages from n-t distinct processes (its own included). If all
// n-t carry the same value v it decides v, otherwise it decides the default
// value v0.
//
// Claims: SC(k, t, RV2) in MP/CR for t < (k-1)n/k (Lemma 3.7);
// SC(k, t, WV2) in MP/Byz for t < n/2 and k >= (n-t)/(n-2t)+1 (Lemma 3.12)
// or t >= n/2 and k >= t+1 (Lemma 3.13).
type ProtocolA struct {
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value

	rcvd firstPerSender
}

var _ mpnet.Protocol = (*ProtocolA)(nil)

// NewProtocolA constructs a Protocol A instance for one process.
func NewProtocolA() *ProtocolA { return &ProtocolA{Default: types.DefaultValue} }

// Start implements mpnet.Protocol.
func (a *ProtocolA) Start(api mpnet.API) {
	a.rcvd.reset(api.N())
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

// Deliver implements mpnet.Protocol.
func (a *ProtocolA) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	if p.Kind != types.KindInput {
		return
	}
	if !a.rcvd.add(from, p.Value) {
		return
	}
	if api.HasDecided() {
		return
	}
	if a.rcvd.count() >= api.N()-api.T() {
		if v, ok := a.rcvd.allEqual(); ok {
			api.Decide(v)
		} else {
			api.Decide(a.Default)
		}
	}
}
