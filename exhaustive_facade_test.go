package kset

import (
	"strings"
	"testing"

	"kset/internal/theory"
)

func TestVerifyOneShotFacade(t *testing.T) {
	v, err := VerifyOneShot(ProtoFloodMin, RV1, 5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Holds {
		t.Errorf("FloodMin at t < k should hold exhaustively: %v", v.Violation)
	}
	v, err = VerifyOneShot(ProtoFloodMin, RV1, 5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Holds || v.Violation == nil {
		t.Fatal("FloodMin at t = k should fail with a witness")
	}
	if !strings.Contains(v.Violation.String(), "agreement") {
		t.Errorf("witness should be an agreement violation: %v", v.Violation)
	}
}

func TestVerifyOneShotRejectsBadArgs(t *testing.T) {
	if _, err := VerifyOneShot(ProtoA, RV2, 12, 3, 2); err == nil {
		t.Error("n=12 accepted (exponential blowup)")
	}
	if _, err := VerifyOneShot(99, RV2, 5, 3, 2); err == nil {
		t.Error("non-one-shot protocol accepted")
	}
}

func TestVerifyOneShotNamesNonOneShotProtocol(t *testing.T) {
	for _, proto := range []theory.ProtocolID{theory.ProtoC, theory.ProtoD, theory.ProtoTrivial, 99} {
		if _, err := VerifyOneShot(proto, SV2, 5, 3, 1); err == nil || !strings.Contains(err.Error(), proto.String()) {
			t.Errorf("VerifyOneShot(%s): err = %v, want one naming the protocol", proto, err)
		}
	}
}
