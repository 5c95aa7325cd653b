package theory

import (
	"strconv"
	"strings"
)

// ProtocolID names the protocols of the paper in a machine-usable way, so
// the harness can instantiate the witness protocol of a solvable cell
// without parsing display strings.
type ProtocolID uint8

// Protocol identifiers.
const (
	ProtoNone ProtocolID = iota
	ProtoFloodMin
	ProtoA
	ProtoB
	ProtoC
	ProtoD
	ProtoE
	ProtoF
	// ProtoTrivial decides one's own input — the k >= n case of Section 2.
	ProtoTrivial
)

// String returns the paper's name for the protocol.
func (p ProtocolID) String() string {
	switch p {
	case ProtoNone:
		return ""
	case ProtoFloodMin:
		return "FloodMin"
	case ProtoA:
		return "Protocol A"
	case ProtoB:
		return "Protocol B"
	case ProtoC:
		return "Protocol C"
	case ProtoD:
		return "Protocol D"
	case ProtoE:
		return "Protocol E"
	case ProtoF:
		return "Protocol F"
	case ProtoTrivial:
		return "Trivial"
	default:
		return "protocol(" + strconv.Itoa(int(p)) + ")"
	}
}

// Token returns the protocol's short lower-case name — "floodmin", "a" …
// "f", "trivial" — as trace artifacts and the cluster's command lines spell
// it, or "" for ProtoNone and values outside the list above.
func (p ProtocolID) Token() string {
	if p == ProtoNone || p > ProtoTrivial {
		return ""
	}
	return strings.ToLower(strings.TrimPrefix(p.String(), "Protocol "))
}

// ProtocolByToken is Token's inverse: it reports false for any string Token
// does not return.
func ProtocolByToken(tok string) (ProtocolID, bool) {
	for p := ProtoFloodMin; p <= ProtoTrivial; p++ {
		if p.Token() == tok {
			return p, true
		}
	}
	return ProtoNone, false
}
