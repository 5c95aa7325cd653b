package wire

import (
	"testing"

	"kset/internal/types"
)

// benchProto is the hot-path message: one mpnet payload between two consensus
// processes, the message the cluster transport carries by the million.
func benchProto() BatchMsg {
	return BatchMsg{
		Kind:     TypeProto,
		Seq:      12345,
		Instance: 42,
		From:     3,
		Payload:  types.Payload{Kind: types.KindEcho, Value: 907, Origin: 1},
	}
}

// BenchmarkWireEncode measures what a paced link writes per message: one
// stream frame holding a one-message batch, appended into a caller-owned
// buffer reused across frames, which must not allocate in steady state.
func BenchmarkWireEncode(b *testing.B) {
	msgs := []BatchMsg{benchProto()}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBatchFrame(buf[:0], nil, msgs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecode measures decoding that one-message batch frame the way
// the receive path does, into a reused Batch.
func BenchmarkWireDecode(b *testing.B) {
	frame, err := AppendBatchFrame(nil, nil, []BatchMsg{benchProto()})
	if err != nil {
		b.Fatal(err)
	}
	var dec Batch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeBatchInto(frame[4:], &dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRoundTrip measures the batched hot path per message: a full
// frame of coalesced protocol messages with a 64-word ack state encoded
// into a reused buffer and decoded back into a reused Batch. ns/op is the
// per-message cost, and steady state must be allocation-free both ways.
func BenchmarkBatchRoundTrip(b *testing.B) {
	const msgsPerFrame = 64
	msgs := make([]BatchMsg, msgsPerFrame)
	acks := make([]uint64, msgsPerFrame)
	for i := range msgs {
		msgs[i] = benchProto()
		msgs[i].Seq = uint64(i + 1)
		acks[i] = uint64(i + 1)
	}
	buf := make([]byte, 0, 4096)
	var dec Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += msgsPerFrame {
		frame, err := AppendBatchFrame(buf[:0], acks, msgs)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame[:0]
		if err := DecodeBatchInto(frame[4:], &dec); err != nil {
			b.Fatal(err)
		}
		if len(dec.Msgs) != msgsPerFrame {
			b.Fatalf("decoded %d msgs, want %d", len(dec.Msgs), msgsPerFrame)
		}
	}
}
