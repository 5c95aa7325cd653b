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
//
// Start begins a fresh run: an instance that ran before restarts in place,
// keeping its scan and its then, bound at the first Start.
type ProtocolE struct {
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value

	api  smmem.API
	scan inputScan
	then func()
}

var _ smmem.Protocol = (*ProtocolE)(nil)

// NewProtocolE constructs a Protocol E instance for one process.
func NewProtocolE() *ProtocolE { return &ProtocolE{Default: types.DefaultValue} }

// Start implements smmem.Protocol.
func (e *ProtocolE) Start(api smmem.API) {
	api.WriteValue(InputRegister, 0, api.Input())
	e.api = api
	e.scan.reset(api)
	if e.then == nil {
		e.then = e.scanned
	}
	e.scan.run(api, e.then)
}

// scanned is the scan's then: it decides by what the scan read.
func (e *ProtocolE) scanned() {
	decision := e.Default
	if e.scan.read > 0 && e.scan.same {
		decision = e.scan.first
	}
	e.api.Decide(decision)
}
