package cluster

import (
	"fmt"
	"strings"

	"kset/internal/theory"
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
