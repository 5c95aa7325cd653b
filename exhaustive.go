package kset

import (
	"fmt"

	"kset/internal/exhaustive"
	"kset/internal/theory"
)

// ExhaustiveVerdict is the result of exhaustive small-scope verification.
type ExhaustiveVerdict = exhaustive.Verdict

// VerifyOneShot exhaustively verifies one of the paper's one-shot broadcast
// protocols (FloodMin, Protocol A or Protocol B, identified by its
// theory.ProtocolID re-exported constants below) at small scale: every input
// pattern, every faulty set of size <= t, and every message-arrival subset.
// It runs the shipped protocol code and judges validity with the checker.
// Unlike Validate, which samples adversaries, this is a proof for the given
// (n, k, t): a holding verdict means no adversary exists, and a failing one
// carries a concrete counterexample. Any other protocol is an error naming it.
//
// Cost grows exponentially in n; keep n <= 7.
func VerifyOneShot(proto theory.ProtocolID, v Validity, n, k, t int) (ExhaustiveVerdict, error) {
	if n < 2 || n > 7 {
		return ExhaustiveVerdict{}, fmt.Errorf("kset: exhaustive verification supports 2 <= n <= 7, got %d", n)
	}
	verdict, err := exhaustive.Verify(proto, v, n, k, t, 0)
	if err != nil {
		return ExhaustiveVerdict{}, fmt.Errorf("kset: %w", err)
	}
	return verdict, nil
}

// One-shot protocol identifiers for VerifyOneShot.
const (
	ProtoFloodMin = theory.ProtoFloodMin
	ProtoA        = theory.ProtoA
	ProtoB        = theory.ProtoB
)
