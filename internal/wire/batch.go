package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"kset/internal/types"
)

// VersionBatch is the wire version of the batch frame, the one framing of
// sequenced peer traffic: it coalesces many sequenced messages and the
// writer's ack state into one length-prefixed frame — one write syscall
// carrying many instances' payloads. Every peer Hello must advertise it.
// Control frames (the Hello itself, ctl requests and replies) are version-1
// single-message frames; version 2 batch frames carried a list of acks.
const VersionBatch = 3

// Batch-frame limits, enforced during decode before any allocation or loop
// is sized by peer input. MaxAckWords bit words span a dedup window of 2^16.
const (
	MaxBatchMsgs = 1 << 12 // sequenced messages in one batch frame
	MaxAckWords  = 1 << 10 // bit words in one ack state
)

// minBatchMsg is the smallest encoded batch message, a decide (kind, seq,
// instance, pid, value): hostile counts are rejected by it before looping.
const minBatchMsg = 1 + 8 + 8 + 4 + 8

// AckState is what a batch frame acknowledges: the writer's dedup window
// over the seqs it accepted from the frame's reader. Word 0 names the
// reader's session the window belongs to, word 1 is the watermark (every seq
// below it is accepted), and bit i of the bit word j after them stands for
// seq watermark+64j+i. Nil acknowledges nothing.
type AckState []uint64

// Session returns the session the state acknowledges; 0 for nil.
func (a AckState) Session() uint64 {
	if len(a) < 2 {
		return 0
	}
	return a[0]
}

// End returns the seq from which on the state acknowledges nothing.
func (a AckState) End() uint64 {
	if len(a) < 2 {
		return 0
	}
	return a[1] + 64*uint64(len(a)-2)
}

// Has reports whether the state acknowledges seq.
func (a AckState) Has(seq uint64) bool {
	if seq >= a.End() {
		return false
	}
	k := seq - a[1]
	return seq < a[1] || a[2+k/64]&(1<<(k%64)) != 0
}

// BatchMsg is one sequenced peer message inside a batch frame: a flat union
// of the three kinds, so batches decode into reusable slices without boxing
// every message into an interface. Seq sequences the message on its link for
// the retransmit/ack reliability layer; it is unique per (sender node,
// receiver node) link, not globally. Kind selects which fields are
// meaningful:
//
//   - TypeProto:   one mpnet payload between two consensus processes —
//     Seq, Instance, From, Payload
//   - TypeDecide:  From decided Value in Instance, broadcast so that every
//     node assembles the full decision table — Seq, Instance, From, Value
//   - TypePropose: one proposal for an ACS round (see Propose) — Seq,
//     Instance (the round), From (the transport sender), Origin (the
//     proposer), Noop, Value
type BatchMsg struct {
	Kind     MsgType
	Seq      uint64
	Instance uint64
	From     types.ProcessID
	Origin   types.ProcessID
	Noop     bool
	Value    types.Value
	Payload  types.Payload
}

// Batch is one decoded batch frame: the writer's ack state plus the
// coalesced sequenced messages, in their original send order. DecodeBatchInto
// reuses the slices across frames, so a steady-state receiver allocates
// nothing per batch.
type Batch struct {
	Ack  AckState
	Msgs []BatchMsg
}

// Type implements Msg.
func (Batch) Type() MsgType { return TypeBatch }

// AppendBatch appends the encoded batch frame body (version, type, ack
// state as a word count and the words, messages) to dst and returns the
// extended slice. With a dst of sufficient capacity it performs no
// allocation. Field validation matches Encode: anything AppendBatch
// accepts, DecodeBatchInto maps back to the identical ack state and msgs.
func AppendBatch(dst []byte, ack AckState, msgs []BatchMsg) ([]byte, error) {
	c := coder{buf: dst, off: len(dst)}
	t := TypeBatch
	c.header(&t)
	codeBatch(&c, &ack, &msgs)
	return c.appended(dst)
}

// AppendBatchFrame appends a complete stream frame — the 4-byte length
// prefix followed by the batch body — to dst. The caller hands the result to
// one Write, so a whole flush round costs one syscall.
func AppendBatchFrame(dst []byte, ack AckState, msgs []BatchMsg) ([]byte, error) {
	orig := dst
	dst = append(dst, 0, 0, 0, 0)
	out, err := AppendBatch(dst, ack, msgs)
	if err != nil {
		return orig, err
	}
	binary.BigEndian.PutUint32(out[len(orig):], uint32(len(out)-len(orig)-4))
	return out, nil
}

// DecodeBatchInto parses one batch frame body into b, reusing b's slice
// capacity. It is as strict as Decode: exact version and type, every count
// bounds-checked against the remaining bytes before the loop it sizes, and
// no trailing bytes.
func DecodeBatchInto(body []byte, b *Batch) error {
	c := coder{buf: body, dec: true}
	var t MsgType
	c.header(&t)
	if c.err == nil && t != TypeBatch {
		return fmt.Errorf("%w: type %v in batch frame", ErrBadFrame, t)
	}
	b.code(&c)
	return c.done()
}

func (b *Batch) code(c *coder) { codeBatch(c, &b.Ack, &b.Msgs) }

// codeBatch walks a batch frame's fields: the ack state's words, then the
// messages.
func codeBatch(c *coder, a *AckState, m *[]BatchMsg) {
	ack := list(c, (*[]uint64)(a), 2+MaxAckWords, 8, "ack state words")
	if len(ack) == 1 {
		c.fail(fmt.Errorf("%w: ack state of one word", ErrBadFrame))
	}
	for i := range ack {
		c.u64(&ack[i])
	}
	msgs := list(c, m, MaxBatchMsgs, minBatchMsg, "batch msgs")
	for i := range msgs {
		msgs[i].code(c)
	}
}

func (m *BatchMsg) code(c *coder) {
	c.u8((*uint8)(&m.Kind))
	if m.Kind != TypeProto && m.Kind != TypeDecide && m.Kind != TypePropose {
		c.enum(false, "batch message kind", uint8(m.Kind))
		return
	}
	c.u64(&m.Seq)
	c.u64(&m.Instance)
	c.pid(&m.From, 0)
	switch m.Kind {
	case TypeProto:
		c.u8((*uint8)(&m.Payload.Kind))
		c.i64((*int64)(&m.Payload.Value))
		c.pid(&m.Payload.Origin, 0)
	case TypeDecide:
		c.i64((*int64)(&m.Value))
	case TypePropose:
		c.pid(&m.Origin, 0)
		c.bool(&m.Noop)
		c.i64((*int64)(&m.Value))
	}
}

// ReadFrameAppend reads one length-prefixed frame body from r, appending it
// to buf (normally buf[:0] of a reused buffer) and returning the extended
// slice. The length prefix is bounds-checked against MaxFrame before any
// growth, so a steady-state reader allocates nothing per frame.
func ReadFrameAppend(r io.Reader, buf []byte) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(prefix[:]))
	if n > MaxFrame {
		return buf, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	start := len(buf)
	if cap(buf)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+n]
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return buf[:start], err
	}
	return buf, nil
}
