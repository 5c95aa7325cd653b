package sm

import (
	"kset/internal/smmem"
	"kset/internal/types"
)

// ProtocolE is the paper's PROTOCOL E: write the input into one's register,
// scan every register exactly once, and decide the common value if every
// value read in that single scan (one's own included) is identical,
// otherwise decide the default value v0.
//
// Claims: SC(k, t, RV2) in SM/CR for every k >= 2 and *any* t (Lemma 4.5) —
// the headline contrast with the message-passing model, where RV2 needs
// t < (k-1)n/k — and SC(k, t, WV2) in SM/Byz for k >= 2 (Lemma 4.10).
//
// Why it works: let v be the value of the first write (by a correct process)
// to complete. Every process writes before scanning, so every scan sees v,
// and a process that decides a non-default value decides the common value of
// its scan, which must be v. Hence at most two values, v and v0, are ever
// decided. Registers not yet written are skipped by the scan; only values
// actually read must be identical.
//
// The scan is one API.Scan of every process's register in id order: n
// granted reads, whose visitor keeps the count, the first value and whether
// every value read equals it, and whose then decides.
type ProtocolE struct {
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value
}

var _ smmem.Protocol = (*ProtocolE)(nil)

// NewProtocolE constructs a Protocol E instance for one process.
func NewProtocolE() *ProtocolE { return &ProtocolE{Default: types.DefaultValue} }

// Start implements smmem.Protocol.
func (e *ProtocolE) Start(api smmem.API) {
	api.WriteValue(InputRegister, 0, api.Input())
	scan := newInputScan(api)
	scan.run(api, func() {
		decision := e.Default
		if scan.read > 0 && scan.same {
			decision = scan.first
		}
		api.Decide(decision)
	})
}
