// Package types defines the shared vocabulary of the k-set consensus
// reproduction: process identifiers, input/decision values, message payloads,
// the run record produced by every runtime, and the enumerations naming the
// four system models and six validity conditions studied in the paper
// (De Prisco, Malkhi, Reiter: "On k-Set Consensus Problems in Asynchronous
// Systems", PODC 1999 / TPDS 2001).
package types

import (
	"errors"
	"fmt"
	"strconv"
)

// ProcessID identifies a process. Processes are numbered 0..n-1.
// The paper writes p1..pn; we use pi = ProcessID(i-1).
type ProcessID int

// String renders the id in the paper's p1..pn convention.
func (p ProcessID) String() string { return "p" + strconv.Itoa(int(p)+1) }

// SmallestBadID returns the smallest id of m that is outside 0..n-1 or
// maps to the zero V (a nil strategy), so that a configuration error naming
// it does not depend on map iteration order.
func SmallestBadID[V comparable](m map[ProcessID]V, n int) (ProcessID, bool) {
	var zero V
	least, found := ProcessID(0), false
	for id, v := range m {
		if (int(id) < 0 || int(id) >= n || v == zero) && (!found || id < least) {
			least, found = id, true
		}
	}
	return least, found
}

// Value is a protocol input or decision value. The paper allows the input
// domain to be unconstrained; int64 is enough for every construction we run
// (the proofs only ever need n+1 distinct values).
type Value int64

// NoValue is the zero Value used in payload fields that do not carry a value.
const NoValue Value = 0

// DefaultValue is the designated default decision value v0 used by
// Protocols A, B, C(l) and F. The paper only requires v0 to be a fixed value
// outside the inputs chosen by the experiments; we reserve a sentinel.
const DefaultValue Value = -1 << 62

// MsgKind enumerates the wire-message kinds used by the protocols.
type MsgKind uint8

// Message kinds. KindInput is a plain broadcast of a process input
// (FloodMin, Protocols A and B). KindInit/KindEcho implement the l-echo
// broadcast of Bracha and Toueg used by Protocols C(l) and D.
const (
	KindInput MsgKind = iota + 1
	KindInit
	KindEcho
)

// String returns the kind name used in traces.
func (k MsgKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindInit:
		return "init"
	case KindEcho:
		return "echo"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Payload is the content of a message. Origin is meaningful for echo
// messages: it names the process whose broadcast is being echoed.
type Payload struct {
	Kind   MsgKind
	Value  Value
	Origin ProcessID
}

// String renders the payload for traces.
func (p Payload) String() string {
	switch p.Kind {
	case KindEcho, KindInit:
		return fmt.Sprintf("%s(%d from %s)", p.Kind, p.Value, p.Origin)
	default:
		return fmt.Sprintf("%s(%d)", p.Kind, p.Value)
	}
}

// FailureMode distinguishes the two process-failure models of the paper.
type FailureMode uint8

// Failure modes.
const (
	Crash FailureMode = iota + 1
	Byzantine
)

// String returns the paper's abbreviation (CR / Byz).
func (f FailureMode) String() string {
	switch f {
	case Crash:
		return "CR"
	case Byzantine:
		return "Byz"
	default:
		return "failure(" + strconv.Itoa(int(f)) + ")"
	}
}

// Comm distinguishes the two communication models of the paper.
type Comm uint8

// Communication models.
const (
	MessagePassing Comm = iota + 1
	SharedMemory
)

// String returns the paper's abbreviation (MP / SM).
func (c Comm) String() string {
	switch c {
	case MessagePassing:
		return "MP"
	case SharedMemory:
		return "SM"
	default:
		return "comm(" + strconv.Itoa(int(c)) + ")"
	}
}

// Model is one of the four system models: MP/CR, MP/Byz, SM/CR, SM/Byz.
type Model struct {
	Comm    Comm
	Failure FailureMode
}

// The four models studied by the paper.
var (
	MPCR  = Model{MessagePassing, Crash}
	MPByz = Model{MessagePassing, Byzantine}
	SMCR  = Model{SharedMemory, Crash}
	SMByz = Model{SharedMemory, Byzantine}
)

// AllModels lists the four models in the paper's presentation order.
func AllModels() []Model { return []Model{MPCR, MPByz, SMCR, SMByz} }

// String returns the paper's abbreviation, e.g. "MP/CR".
func (m Model) String() string { return m.Comm.String() + "/" + m.Failure.String() }

// ErrUnknownModel reports a model outside the paper's four.
var ErrUnknownModel = errors.New("types: unknown model")

// CheckModel returns ErrUnknownModel, wrapped, unless m is one of the
// paper's four models.
func CheckModel(m Model) error {
	switch m {
	case MPCR, MPByz, SMCR, SMByz:
		return nil
	}
	return fmt.Errorf("%w: %v", ErrUnknownModel, m)
}

// ParseModel parses the paper abbreviations "mp/cr", "mp/byz", "sm/cr",
// "sm/byz" (case-insensitive).
func ParseModel(s string) (Model, error) {
	switch lower(s) {
	case "mp/cr":
		return MPCR, nil
	case "mp/byz":
		return MPByz, nil
	case "sm/cr":
		return SMCR, nil
	case "sm/byz":
		return SMByz, nil
	default:
		return Model{}, fmt.Errorf("%w: %q", ErrUnknownModel, s)
	}
}

// Validity enumerates the six validity conditions of Section 2 of the paper.
type Validity uint8

// Validity conditions, strongest first within each family.
//
//	SV1: the decision of any correct process equals the input of some
//	     correct process.
//	SV2: if all correct processes start with v, correct processes decide v.
//	RV1: the decision of any correct process equals the input of some process.
//	RV2: if all processes start with v, correct processes decide v.
//	WV1: if there are no failures, any decision equals the input of some
//	     process.
//	WV2: if there are no failures and all processes start with v, any
//	     decision equals v.
const (
	SV1 Validity = iota + 1
	SV2
	RV1
	RV2
	WV1
	WV2
)

// AllValidities lists the six conditions in the paper's order of definition.
func AllValidities() []Validity { return []Validity{SV1, SV2, RV1, RV2, WV1, WV2} }

// String returns the paper's name for the condition.
func (v Validity) String() string {
	switch v {
	case SV1:
		return "SV1"
	case SV2:
		return "SV2"
	case RV1:
		return "RV1"
	case RV2:
		return "RV2"
	case WV1:
		return "WV1"
	case WV2:
		return "WV2"
	default:
		return "validity(" + strconv.Itoa(int(v)) + ")"
	}
}

// ErrUnknownValidity reports a validity name outside the paper's six.
var ErrUnknownValidity = errors.New("types: unknown validity condition")

// CheckValidity returns ErrUnknownValidity, wrapped, unless v is one of the
// paper's six conditions.
func CheckValidity(v Validity) error {
	if v >= SV1 && v <= WV2 {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrUnknownValidity, v)
}

// ParseValidity parses "sv1", "SV2", etc. (case-insensitive).
func ParseValidity(s string) (Validity, error) {
	switch lower(s) {
	case "sv1":
		return SV1, nil
	case "sv2":
		return SV2, nil
	case "rv1":
		return RV1, nil
	case "rv2":
		return RV2, nil
	case "wv1":
		return WV1, nil
	case "wv2":
		return WV2, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownValidity, s)
	}
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}
