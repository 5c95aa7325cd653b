package theory

import "testing"

// The tokens are the spelling of every ksettrace artifact's protocol line,
// so they may never change.
func TestProtocolTokens(t *testing.T) {
	want := map[ProtocolID]string{
		ProtoFloodMin: "floodmin", ProtoA: "a", ProtoB: "b", ProtoC: "c",
		ProtoD: "d", ProtoE: "e", ProtoF: "f", ProtoTrivial: "trivial",
	}
	for p := ProtoNone; p <= ProtoTrivial+1; p++ {
		tok := p.Token()
		if tok != want[p] {
			t.Errorf("%v.Token() = %q, want %q", p, tok, want[p])
		}
		got, ok := ProtocolByToken(tok)
		if ok != (tok != "") || (ok && got != p) {
			t.Errorf("ProtocolByToken(%q) = %v, %v", tok, got, ok)
		}
	}
	for _, tok := range []string{"Protocol A", "A", "FloodMin", "protocol-a", " a"} {
		if p, ok := ProtocolByToken(tok); ok {
			t.Errorf("ProtocolByToken(%q) = %v, want no match", tok, p)
		}
	}
}
