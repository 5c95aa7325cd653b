package mp

import (
	"kset/internal/mpnet"
	"kset/internal/types"
)

// FloodMin is Chaudhuri's protocol for SC(k, t, RV1) in MP/CR, t < k
// (Lemma 3.1 cites [13]). Each process broadcasts its input, waits for
// messages from n-t distinct processes (its own included) and decides the
// minimum value received.
//
// Why it works for t < k: a message set of size n-t excludes at most t
// processes, so its minimum is one of the t+1 smallest inputs; hence at most
// t+1 <= k distinct values are decided, and every decision is some process's
// input (RV1).
type FloodMin struct {
	rcvd firstPerSender
}

var _ mpnet.Protocol = (*FloodMin)(nil)

// NewFloodMin constructs a FloodMin instance for one process.
func NewFloodMin() *FloodMin { return &FloodMin{} }

// Start implements mpnet.Protocol.
func (f *FloodMin) Start(api mpnet.API) {
	f.rcvd.reset(api.N())
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

// Deliver implements mpnet.Protocol.
func (f *FloodMin) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	if p.Kind != types.KindInput {
		return
	}
	if !f.rcvd.add(from, p.Value) {
		return
	}
	if api.HasDecided() {
		return
	}
	if f.rcvd.count() >= api.N()-api.T() {
		if m, ok := f.rcvd.min(); ok {
			api.Decide(m)
		}
	}
}
