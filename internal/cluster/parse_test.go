package cluster

import (
	"slices"
	"strings"
	"testing"

	"kset/internal/theory"
)

func TestParseProtocol(t *testing.T) {
	accepted := map[string]theory.ProtocolID{
		"floodmin":     theory.ProtoFloodMin,
		" FloodMin ":   theory.ProtoFloodMin,
		"a":            theory.ProtoA,
		"Protocol-A":   theory.ProtoA,
		"protocol-b":   theory.ProtoB,
		"C":            theory.ProtoC,
		"protocol-d\n": theory.ProtoD,
		"trivial":      theory.ProtoTrivial,
	}
	for in, want := range accepted {
		if got, err := ParseProtocol(in); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "none", "e", "f", "protocol-e", "protocol-floodmin", "protocol-trivial", "protocol a", "sim"} {
		_, err := ParseProtocol(in)
		if err == nil {
			t.Errorf("ParseProtocol(%q) accepted", in)
			continue
		}
		if want := "(want floodmin, a, b, c, d, or trivial)"; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseProtocol(%q) error %q does not list %s", in, err, want)
		}
	}
}

func TestParseAddrs(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{" , ,", nil},
		{"a:1", []string{"a:1"}},
		{" a:1, b:2 ,,c:3 ", []string{"a:1", "b:2", "c:3"}},
		{"a:1,b:2,", []string{"a:1", "b:2"}},
		{"\ta:1\n", []string{"a:1"}},
	} {
		if got := ParseAddrs(tc.in); !slices.Equal(got, tc.want) {
			t.Errorf("ParseAddrs(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
