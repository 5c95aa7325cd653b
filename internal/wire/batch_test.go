package wire

import (
	"bytes"
	"reflect"
	"testing"

	"kset/internal/types"
)

// protoMsgs builds n distinct protocol batch messages.
func protoMsgs(n int) []BatchMsg {
	msgs := make([]BatchMsg, n)
	for i := range msgs {
		msgs[i] = BatchMsg{
			Kind:     TypeProto,
			Seq:      uint64(i + 1),
			Instance: uint64(i % 7),
			From:     types.ProcessID(i % 5),
			Payload:  types.Payload{Kind: types.KindEcho, Value: types.Value(i), Origin: 1},
		}
	}
	return msgs
}

// TestBatchFrameRoundTrip drives the zero-allocation path end to end the way
// the link does: append full stream frames into one reused buffer, read them
// back with ReadFrameAppend, and decode into a reused Batch.
func TestBatchFrameRoundTrip(t *testing.T) {
	frames := []Batch{
		{Ack: AckState{9, 2, 500}, Msgs: protoMsgs(3)},
		{Ack: nil, Msgs: []BatchMsg{{Kind: TypeDecide, Seq: 4, Instance: 1, From: 2, Value: -9}}},
		{Ack: AckState{1, 1}, Msgs: nil},
		{Ack: fullAckState(), Msgs: protoMsgs(1)},
		{},
	}
	var stream bytes.Buffer
	var enc []byte
	for _, f := range frames {
		var err error
		enc, err = AppendBatchFrame(enc[:0], f.Ack, f.Msgs)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(enc)
	}
	var buf []byte
	var got Batch
	for i, want := range frames {
		var err error
		buf, err = ReadFrameAppend(&stream, buf[:0])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := DecodeBatchInto(buf, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Errorf("frame %d changed:\n%#v\nvs\n%#v", i, want, got)
		}
	}
	if stream.Len() != 0 {
		t.Errorf("%d bytes left over after reading all frames", stream.Len())
	}
}

// TestAckStateHas pins the reading of an ack state: every seq below the
// watermark, and above it the seqs whose bits are set, relative to the
// watermark; nil acknowledges nothing.
func TestAckStateHas(t *testing.T) {
	a := AckState{7, 100, 0b110, 1 << 63}
	if a.Session() != 7 || a.End() != 228 {
		t.Fatalf("session %d, end %d, want 7 and 228", a.Session(), a.End())
	}
	want := map[uint64]bool{1: true, 99: true, 101: true, 102: true, 227: true}
	for seq := uint64(0); seq < 300; seq++ {
		if got := a.Has(seq); got != (seq < 100 || want[seq]) {
			t.Errorf("Has(%d) = %v", seq, got)
		}
	}
	var none AckState
	if none.Session() != 0 || none.Has(0) || none.Has(1) || none.End() != 0 {
		t.Error("nil ack state acknowledges something")
	}
}

// TestAppendEncodeMatchesEncode pins AppendEncode as a pure append form of
// Encode: same bytes, placed after any existing prefix, for every sample.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	for _, m := range sampleMsgs() {
		want, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		got, err := AppendEncode(append([]byte{}, prefix...), m)
		if err != nil {
			t.Fatalf("AppendEncode(%#v): %v", m, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("AppendEncode(%#v) clobbered the prefix: %x", m, got)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("AppendEncode(%#v) = %x, want %x", m, got[len(prefix):], want)
		}
	}
}

// TestAppendBatchFrameErrorRestoresDst pins that a failed frame append does
// not leave a half-written length prefix in the caller's buffer.
func TestAppendBatchFrameErrorRestoresDst(t *testing.T) {
	dst := []byte{1, 2, 3}
	out, err := AppendBatchFrame(dst, nil, []BatchMsg{{Kind: TypeHello}})
	if err == nil {
		t.Fatal("bad batch message accepted")
	}
	if !bytes.Equal(out, []byte{1, 2, 3}) {
		t.Errorf("dst after failed append = %x, want original bytes", out)
	}
}

// TestReadFrameAppendReuse pins that a buffer with enough capacity is reused
// rather than reallocated.
func TestReadFrameAppendReuse(t *testing.T) {
	frame, err := AppendBatchFrame(nil, []uint64{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	got, err := ReadFrameAppend(bytes.NewReader(frame), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("ReadFrameAppend reallocated despite sufficient capacity")
	}
	if !bytes.Equal(got, frame[4:]) {
		t.Errorf("body = %x, want %x", got, frame[4:])
	}
	// An oversized prefix is rejected before any read or growth.
	if _, err := ReadFrameAppend(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), nil); err == nil {
		t.Error("oversized frame prefix accepted")
	}
}
