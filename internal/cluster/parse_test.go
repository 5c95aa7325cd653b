package cluster

import (
	"slices"
	"strings"
	"testing"

	"kset/internal/theory"
	"kset/internal/types"
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

func TestParseInputs(t *testing.T) {
	if vals, err := ParseInputs("", 3); vals != nil || err != nil {
		t.Errorf("ParseInputs(\"\", 3) = %v, %v; want nil, nil (the caller's default)", vals, err)
	}
	if vals, err := ParseInputs("5, -2, 7", 3); err != nil || !slices.Equal(vals, []types.Value{5, -2, 7}) {
		t.Errorf("explicit inputs: %v, %v", vals, err)
	}
	if vals, err := ParseInputs("9223372036854775807", 1); err != nil || vals[0] != 1<<63-1 {
		t.Errorf("largest int64 input: %v, %v", vals, err)
	}
	if _, err := ParseInputs("1,2", 3); err == nil {
		t.Error("wrong count accepted")
	} else if !strings.Contains(err.Error(), "2 values for 3 processes") {
		t.Errorf("length-mismatch error should name both counts: %v", err)
	}
	for _, in := range []string{"1,x,3", "1,,3", "1,2,9223372036854775808"} {
		if _, err := ParseInputs(in, 3); err == nil {
			t.Errorf("ParseInputs(%q, 3) accepted", in)
		}
	}
}
