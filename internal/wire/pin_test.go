package wire

import (
	"hash/fnv"
	"testing"

	"kset/internal/types"
)

// mixedBatch is one batch frame's messages mixing all three kinds.
func mixedBatch() []BatchMsg {
	return []BatchMsg{
		{Kind: TypeProto, Seq: 1, Instance: 9, From: 2,
			Payload: types.Payload{Kind: types.KindInput, Value: -4, Origin: 2}},
		{Kind: TypeDecide, Seq: 2, Instance: 9, From: 1, Value: 6},
		{Kind: TypePropose, Seq: 3, Instance: 12, From: 0, Origin: 3, Noop: true},
		{Kind: TypeProto, Seq: 4, Instance: 10, From: 3,
			Payload: types.Payload{Kind: types.KindEcho, Value: 1 << 40, Origin: 0}},
		{Kind: TypePropose, Seq: 5, Instance: 12, From: 1, Origin: 1, Value: -77},
	}
}

// TestFrameBytesPinned pins the bytes on the wire: FNV-64a hashes of the
// encoding of every sample message and of two batch frames, computed by the
// codec as first released at this wire version. Round-trip and fuzz tests
// cannot see a layout change, since encoder and decoder move together; a
// change here means every deployed node stops understanding the new one.
func TestFrameBytesPinned(t *testing.T) {
	var samples []byte
	for _, m := range sampleMsgs() {
		samples = append(samples, mustEncode(t, m)...)
	}
	full, err := AppendBatchFrame(nil, fullAckState(), protoMsgs(MaxBatchMsgs))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := AppendBatchFrame(nil, AckState{3, 70, 1<<63 | 5}, mixedBatch())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
		want  uint64
	}{
		{"every sample message", samples, 0x9dd945ef4b58e70f},
		{"full batch frame", full, 0x413c61a65bfdd950},
		{"mixed batch frame", mixed, 0x111d60d3fa9d9809},
	} {
		h := fnv.New64a()
		h.Write(tc.bytes)
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: FNV-64a %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
