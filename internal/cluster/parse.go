package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"kset/internal/theory"
	"kset/internal/types"
)

// liveProtocols are the protocols the cluster runtime hosts, in the order
// ParseProtocol's error lists them.
var liveProtocols = []theory.ProtocolID{
	theory.ProtoFloodMin, theory.ProtoA, theory.ProtoB, theory.ProtoC, theory.ProtoD, theory.ProtoTrivial,
}

// ParseProtocol maps a command-line protocol name to its identifier: the
// protocol's token ("floodmin", "a" … "d", "trivial") or its paper name
// with a hyphen ("protocol-a"), in any case and with surrounding space. The
// cluster runtime hosts the message-passing protocols; SIMULATION-only rows
// (Protocols E and F) and the shared-memory side are not valid here.
func ParseProtocol(s string) (theory.ProtocolID, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	want := make([]string, len(liveProtocols))
	for i, p := range liveProtocols {
		if name == p.Token() || name == strings.ReplaceAll(strings.ToLower(p.String()), " ", "-") {
			return p, nil
		}
		want[i] = p.Token()
	}
	last := len(want) - 1
	return theory.ProtoNone, fmt.Errorf("cluster: unknown protocol %q (want %s, or %s)", s, strings.Join(want[:last], ", "), want[last])
}

// ParseAddrs splits a command-line -peers list on commas, trims the space
// around each address and drops empty entries.
func ParseAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// ParseInputs reads a command-line -inputs list such as "4,7,2": exactly n
// comma-separated integers, one input per process, the space around each
// trimmed. An empty list is nil, leaving the inputs to the caller.
func ParseInputs(s string, n int) ([]types.Value, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("cluster: -inputs lists %d values for %d processes: every process needs exactly one input", len(parts), n)
	}
	out := make([]types.Value, n)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: -inputs entry %d: %w", i, err)
		}
		out[i] = types.Value(v)
	}
	return out, nil
}
