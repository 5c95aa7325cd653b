package sm

import (
	"kset/internal/smmem"
	"kset/internal/types"
)

// ProtocolF is the paper's PROTOCOL F: write the input into one's register,
// then repeatedly scan all registers until a single scan successfully reads
// r >= n-t of them. If r <= t (possible when n <= 2t), decide one's own
// input. Otherwise r = t+i for some i >= 1: decide one's own input if at
// least i of the r values read (one's own included) equal it, and the
// default value v0 otherwise.
//
// Claims: SC(k, t, SV2) in SM/CR for k > t+1 (Lemma 4.7) and in SM/Byz for
// k > t+1 (Lemma 4.12).
//
// Why at most t+2 values: as long as fewer than t+1 writes (by correct
// processes) have completed, fewer than t+1 values have been decided. After
// t+1 writes of values v1..v_{t+1} complete, any scan reads r = t+i values
// with i >= 1, and deciding v requires i of them to equal v, forcing v to be
// among v1..v_{t+1}. With the default value that is at most t+2 <= k.
//
// Each scan is one API.Scan of every process's register in id order, whose
// visitor counts the registers written and the values equal to one's own
// input, and whose then scans again or decides; a rescan reuses the list,
// the visitor and the then and allocates nothing. Start begins a fresh run:
// an instance that ran before restarts in place, keeping its scan and its
// then, bound at the first Start.
type ProtocolF struct {
	// Default is the default decision value v0; zero value means
	// types.DefaultValue.
	Default types.Value

	api  smmem.API
	scan inputScan
	then func()
}

var _ smmem.Protocol = (*ProtocolF)(nil)

// NewProtocolF constructs a Protocol F instance for one process.
func NewProtocolF() *ProtocolF { return &ProtocolF{Default: types.DefaultValue} }

// Start implements smmem.Protocol.
func (f *ProtocolF) Start(api smmem.API) {
	api.WriteValue(InputRegister, 0, api.Input())
	f.api = api
	f.scan.reset(api)
	if f.then == nil {
		f.then = f.scanned
	}
	f.scan.run(api, f.then)
}

// scanned is every scan's then: it scans again or decides.
func (f *ProtocolF) scanned() {
	api, scan := f.api, &f.scan
	n, t := api.N(), api.T()
	if scan.read < n-t { // rescan until enough registers are written
		scan.run(api, f.then)
		return
	}
	// r = scan.read = t+i: own input if r <= t or at least i votes for it.
	if r := scan.read; r <= t || scan.votes >= r-t {
		api.Decide(api.Input())
	} else {
		api.Decide(f.Default)
	}
}
