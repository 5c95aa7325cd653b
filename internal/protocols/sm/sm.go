// Package sm implements the paper's shared-memory protocols:
//
//   - Protocol E — SC(k, t, RV2) in SM/CR for every k >= 2 and any t
//     (Lemma 4.5), and SC(k, t, WV2) in SM/Byz (Lemma 4.10). A single
//     write-then-scan: decide the common value of the scan or a default.
//   - Protocol F — SC(k, t, SV2) in SM/CR and SM/Byz for k > t+1
//     (Lemmas 4.7 and 4.12). Write, then rescan until one scan returns at
//     least n-t written registers, and decide by the i-votes rule.
//   - Simulation — the paper's SIMULATION transformation (Section 4): any
//     message-passing protocol runs over shared memory by writing each
//     message to a fresh single-writer register and having recipients poll.
//
// The register layout of each protocol is documented on its type.
package sm

import (
	"kset/internal/smmem"
	"kset/internal/types"
)

// InputRegister is the register name used by Protocols E and F for the
// single value each process publishes.
const InputRegister = "input"

// inputRegs lists every process's "input" register in id order, n processes.
// The list must not be modified: up to n = 64 it is a prefix of one list
// built at init and shared by every scan of every run.
func inputRegs(n int) []smmem.Reg {
	if n <= len(sharedInputRegs) {
		return sharedInputRegs[:n:n]
	}
	return buildInputRegs(n)
}

var sharedInputRegs = buildInputRegs(64)

func buildInputRegs(n int) []smmem.Reg {
	l := make([]smmem.Reg, n)
	for q := range l {
		l[q] = smmem.Reg{Owner: types.ProcessID(q), Name: InputRegister}
	}
	return l
}

// inputScan is one process's scan of every process's "input" register, in id
// order, as one API.Scan, and what Protocols E and F decide by: how many
// registers were written (unwritten ones are skipped), whether every value
// read equals the first, and how many equal the process's own input. The
// visitor is a method value bound once, so a rescan allocates nothing.
type inputScan struct {
	regs  []smmem.Reg
	visit func(int, types.Payload, bool)
	input types.Value

	read, votes int
	first       types.Value
	same        bool
}

func newInputScan(api smmem.API) *inputScan {
	s := &inputScan{regs: inputRegs(api.N()), input: api.Input()}
	s.visit = s.see
	return s
}

// run scans once, starting the count afresh.
func (s *inputScan) run(api smmem.API) {
	s.read, s.votes, s.same = 0, 0, true
	api.Scan(s.regs, s.visit)
}

func (s *inputScan) see(_ int, p types.Payload, ok bool) {
	if !ok {
		return
	}
	if s.read == 0 {
		s.first = p.Value
	}
	s.same = s.same && p.Value == s.first
	if p.Value == s.input {
		s.votes++
	}
	s.read++
}
