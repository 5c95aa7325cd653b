package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"kset/internal/types"
)

// Encode serializes one message into a frame body (version, type, fields —
// without the stream length prefix; see WriteMsg). It rejects messages whose
// fields cannot be represented on the wire, so a successful Encode always
// yields a body Decode accepts and maps back to the identical message.
func Encode(m Msg) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode appends the encoded frame body for m to dst and returns the
// extended slice; with a dst of sufficient capacity it performs no
// allocation. On error dst is returned unextended. Validation is identical
// to Encode.
func AppendEncode(dst []byte, m Msg) ([]byte, error) {
	c := coder{buf: dst, off: len(dst)}
	t := m.Type()
	c.header(&t)
	c.walk(t, m)
	return c.appended(dst)
}

// Decode parses one frame body. It is strict: the version and type must be
// known, every count must respect the package limits, and the body must be
// exactly the length its type demands — trailing bytes are an error.
func Decode(body []byte) (Msg, error) {
	c := coder{buf: body, dec: true}
	var t MsgType
	c.header(&t)
	m := c.walk(t, nil)
	if err := c.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// walk codes the body of one frame of type t through that type's walk:
// encoding walks m, decoding walks the type's zero value (m is nil) and
// returns it filled. This switch is the one table from frame type to walk.
func (c *coder) walk(t MsgType, m Msg) Msg {
	switch t {
	case TypeHello:
		return walkAs(c, m, (*Hello).code)
	case TypeStart:
		return walkAs(c, m, (*Start).code)
	case TypeStartAck:
		return walkAs(c, m, (*StartAck).code)
	case TypePullTable:
		return walkAs(c, m, (*PullTable).code)
	case TypeTable:
		return walkAs(c, m, (*Table).code)
	case TypePullMetrics:
		return walkAs(c, m, (*PullMetrics).code)
	case TypeMetrics:
		return walkAs(c, m, (*Metrics).code)
	case TypeBatch:
		return walkAs(c, m, (*Batch).code)
	case TypeAcsSubmit:
		return walkAs(c, m, (*AcsSubmit).code)
	case TypeAcsAck:
		return walkAs(c, m, (*AcsAck).code)
	case TypePullAcsRound:
		return walkAs(c, m, (*PullAcsRound).code)
	case TypeAcsRound:
		return walkAs(c, m, (*AcsRound).code)
	case TypePullLog:
		return walkAs(c, m, (*PullLog).code)
	case TypeLog:
		return walkAs(c, m, (*Log).code)
	case TypeSweepJob:
		return walkAs(c, m, (*SweepJob).code)
	case TypeSweepResult:
		return walkAs(c, m, (*SweepResult).code)
	}
	c.fail(fmt.Errorf("%w: unknown type %d", ErrBadFrame, uint8(t)))
	return nil
}

// errNotFrame rejects a message whose concrete type is not the value type of
// the frame its Type names (a *Hello, say).
var errNotFrame = fmt.Errorf("%w: message is not its frame type's value", ErrBadFrame)

// errTruncated rejects a body that ends inside a field.
var errTruncated = fmt.Errorf("%w: truncated", ErrBadFrame)

// walkAs runs the walk code over a T: a copy of m when encoding, the zero
// value when decoding. It is small enough to inline into walk, where code
// becomes a direct call and the walked copy stays on the stack.
func walkAs[T Msg](c *coder, m Msg, code func(*T, *coder)) Msg {
	v, ok := m.(T)
	if !ok && !c.dec {
		c.fail(errNotFrame)
	}
	code(&v, c)
	if c.dec {
		return v
	}
	return m
}

// Each frame type states its field order once, in its code method; the
// coder runs it in either direction.

func (h *Hello) code(c *coder) {
	c.pid(&h.From, -1)
	c.u8((*uint8)(&h.Role))
	c.enum(h.Role == RolePeer || h.Role == RoleCtl, "hello role", uint8(h.Role))
	c.count(&h.N, MaxProcs, "hello n")
	c.u64(&h.Session)
	// MaxVersion is a trailing byte a v1-only sender omits, decoded as 1 when
	// absent; an explicit 0 or 1 would break canonical encoding.
	if c.dec && c.left() > 0 || !c.dec && h.MaxVersion > Version {
		c.u8(&h.MaxVersion)
		c.enum(h.MaxVersion > Version, "hello max version (must be omitted)", h.MaxVersion)
	} else if c.dec {
		h.MaxVersion = 1
	}
}

func (s *Start) code(c *coder) {
	c.u64(&s.Instance)
	c.count(&s.K, MaxProcs, "start k")
	c.count(&s.T, MaxProcs, "start t")
	c.u8(&s.Proto)
	c.count(&s.Ell, MaxProcs, "start ell")
	c.i64((*int64)(&s.Input))
}

func (a *StartAck) code(c *coder) {
	c.u64(&a.Instance)
	c.pid(&a.From, 0)
}

func (p *PullTable) code(c *coder) { c.u64(&p.Instance) }

func (t *Table) code(c *coder) {
	c.u64(&t.Instance)
	c.count(&t.K, MaxProcs, "table k")
	c.count(&t.T, MaxProcs, "table t")
	rows := list(c, &t.Rows, MaxProcs, 1+8, "table rows")
	for i := range rows {
		c.bool(&rows[i].Decided)
		c.i64((*int64)(&rows[i].Value))
	}
}

func (*PullMetrics) code(*coder) {}

func (m *Metrics) code(c *coder) {
	values := list(c, &m.Values, MaxValues, 2+8, "metric values")
	for i := range values {
		c.name(&values[i].Name, "metric value name")
		c.i64(&values[i].Value)
	}
	hists := list(c, &m.Hists, MaxHists, 2+4*8+4, "histograms")
	for i := range hists {
		h := &hists[i]
		c.name(&h.Name, "histogram name")
		c.u64(&h.Count)
		c.i64(&h.SumMicros)
		c.i64(&h.MinMicros)
		c.i64(&h.MaxMicros)
		buckets := list(c, &h.Buckets, MaxBuckets+1, 8+8, "histogram buckets")
		for j := range buckets {
			c.i64(&buckets[j].UpperMicros)
			c.u64(&buckets[j].Count)
		}
	}
}

func (s *AcsSubmit) code(c *coder)    { c.i64((*int64)(&s.Value)) }
func (a *AcsAck) code(c *coder)       { c.u64(&a.Round) }
func (p *PullAcsRound) code(c *coder) { c.u64(&p.Round) }

func (r *AcsRound) code(c *coder) {
	c.u64(&r.Round)
	c.bool(&r.Closed)
	slots := list(c, &r.Slots, MaxProcs, 1+1+1+8, "acs slots")
	for i := range slots {
		s := &slots[i]
		c.u8(&s.Status)
		c.enum(s.Status <= AcsOut, "acs slot status", s.Status)
		c.bool(&s.Held)
		c.bool(&s.Noop)
		c.i64((*int64)(&s.Value))
	}
}

func (p *PullLog) code(c *coder) {
	c.u64(&p.Start)
	c.count(&p.Max, MaxLogEntries, "pull-log max")
}

func (l *Log) code(c *coder) {
	c.u64(&l.Total)
	c.u64(&l.Start)
	entries := list(c, &l.Entries, MaxLogEntries, 8+4+8, "log entries")
	for i := range entries {
		c.u64(&entries[i].Round)
		c.pid(&entries[i].Proposer, 0)
		c.i64((*int64)(&entries[i].Value))
	}
}

func (j *SweepJob) code(c *coder) {
	c.u64(&j.Job)
	c.u64(&j.Seed)
	c.axis8(&j.Models, "sweep models")
	c.axis8(&j.Validities, "sweep validities")
	c.axisInts(&j.Ns, "sweep n")
	c.axisInts(&j.Ks, "sweep k")
	c.axisInts(&j.Ts, "sweep t")
	c.axis8(&j.Plans, "sweep plans")
	c.count(&j.Trials, MaxSweepRuns, "sweep trials")
	c.count(&j.Runs, MaxSweepRuns, "sweep runs")
	c.u64(&j.First)
	c.count(&j.Count, MaxSweepCells, "sweep count")
}

// minSweepRecord is the smallest encoded sweep record: every name empty.
const minSweepRecord = 8 + 1 + 1 + 3*4 + 1 + 4 + 8 + 1 + 2 + 2 + 3*4 + 3 + 8 + 8 + 4 + 8 + 8 + 2

func (r *SweepResult) code(c *coder) {
	c.u64(&r.Job)
	c.u64(&r.First)
	records := list(c, &r.Records, MaxSweepCells, minSweepRecord, "sweep records")
	for i := range records {
		records[i].code(c)
	}
}

func (r *SweepRecord) code(c *coder) {
	c.u64(&r.Cell)
	c.u8(&r.Model)
	c.u8(&r.Validity)
	c.count(&r.N, MaxProcs, "sweep record n")
	c.count(&r.K, MaxProcs, "sweep record k")
	c.count(&r.T, MaxProcs, "sweep record t")
	c.u8(&r.Plan)
	c.count(&r.Trial, MaxSweepRuns, "sweep record trial")
	c.u64(&r.Seed)
	c.u8(&r.Status)
	c.enum(r.Status >= SweepSolvable && r.Status <= SweepInvalid, "sweep record status", r.Status)
	c.name(&r.Lemma, "sweep record lemma")
	c.name(&r.Protocol, "sweep record protocol")
	c.count(&r.Runs, MaxSweepRuns, "sweep record runs")
	c.count(&r.Violations, MaxSweepRuns, "sweep record violations")
	c.count(&r.RunErrors, MaxSweepRuns, "sweep record run errors")
	c.bool(&r.TermOK)
	c.bool(&r.AgreeOK)
	c.bool(&r.ValidOK)
	c.i64(&r.Events)
	c.i64(&r.Messages)
	c.count(&r.MaxDistinct, MaxProcs, "sweep record max distinct")
	c.i64(&r.MeanDistinctMilli)
	c.i64(&r.DefaultDecisions)
	c.name(&r.FirstViolation, "sweep record violation text")
}

// WriteMsg encodes m and writes it as one length-prefixed frame, prefix and
// body in a single Write: on a raw connection one syscall and one segment.
func WriteMsg(w io.Writer, m Msg) error {
	frame, err := AppendEncode(make([]byte, 4, 4+64), m)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err = w.Write(frame)
	return err
}

// ReadMsg reads one length-prefixed frame and decodes it. The length prefix
// is bounds-checked against MaxFrame before any allocation.
func ReadMsg(r io.Reader) (Msg, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return Decode(body)
}

// coder walks one frame body in either direction. Encoding appends each
// field it is handed to buf and never writes the field; decoding reads the
// field from buf into the same place. Every check runs in both directions,
// and the first error latches: later fields still walk, harmlessly, and the
// entry point reports the error.
type coder struct {
	buf []byte
	// off is the read offset into buf when decoding, and where the frame
	// body starts in buf when encoding.
	off int
	dec bool
	err error
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// left returns the bytes the frame has left: the unread body when decoding,
// the room under MaxFrame when encoding.
func (c *coder) left() int {
	if c.dec {
		return len(c.buf) - c.off
	}
	return MaxFrame - (len(c.buf) - c.off)
}

// header codes the version and type bytes that open every frame body: the
// batch frame is VersionBatch, every control frame Version.
func (c *coder) header(t *MsgType) {
	v := frameVersion(*t)
	c.u8(&v)
	if c.err == nil && v != Version && v != VersionBatch {
		c.fail(fmt.Errorf("%w: got %d, want %d or %d", ErrVersion, v, Version, VersionBatch))
		return
	}
	c.u8((*uint8)(t))
	if c.err == nil && frameVersion(*t) != v {
		c.fail(fmt.Errorf("%w: type %d in a version %d frame", ErrBadFrame, uint8(*t), v))
	}
}

func frameVersion(t MsgType) uint8 {
	if t == TypeBatch {
		return VersionBatch
	}
	return Version
}

// appended closes an encoding walk: the extended buffer, or dst unextended
// and the error.
func (c *coder) appended(dst []byte) ([]byte, error) {
	if err := c.done(); err != nil {
		return dst, err
	}
	return c.buf, nil
}

// done closes a walk: a decoded body must be used up exactly, and an encoded
// one must fit MaxFrame.
func (c *coder) done() error {
	switch {
	case c.err != nil:
		return c.err
	case c.dec && c.left() != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, c.left())
	case !c.dec && c.left() < 0:
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(c.buf)-c.off)
	}
	return nil
}

func (c *coder) u8(p *uint8) {
	if !c.dec {
		c.buf = append(c.buf, *p)
	} else if c.off < len(c.buf) {
		*p = c.buf[c.off]
		c.off++
	} else {
		c.fail(errTruncated)
	}
}

func (c *coder) u16(p *uint16) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint16(c.buf, *p)
	} else if len(c.buf)-c.off >= 2 {
		*p = binary.BigEndian.Uint16(c.buf[c.off:])
		c.off += 2
	} else {
		c.fail(errTruncated)
	}
}

func (c *coder) u32(p *uint32) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint32(c.buf, *p)
	} else if len(c.buf)-c.off >= 4 {
		*p = binary.BigEndian.Uint32(c.buf[c.off:])
		c.off += 4
	} else {
		c.fail(errTruncated)
	}
}

func (c *coder) u64(p *uint64) {
	if !c.dec {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *p)
	} else if len(c.buf)-c.off >= 8 {
		*p = binary.BigEndian.Uint64(c.buf[c.off:])
		c.off += 8
	} else {
		c.fail(errTruncated)
	}
}

func (c *coder) i64(p *int64) {
	v := uint64(*p)
	c.u64(&v)
	if c.dec {
		*p = int64(v)
	}
}

// bool codes the canonical boolean byte: exactly 0 or 1.
func (c *coder) bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	c.u8(&b)
	c.enum(b <= 1, "boolean byte", b)
	if c.dec {
		*p = b == 1
	}
}

// enum fails the walk unless ok, the verdict on a coded byte v.
func (c *coder) enum(ok bool, what string, v uint8) {
	if !ok {
		c.fail(fmt.Errorf("%w: %s %d", ErrBadFrame, what, v))
	}
}

// pid codes a process id, which must lie in [min, MaxProcs).
func (c *coder) pid(p *types.ProcessID, min types.ProcessID) {
	v := uint32(*p)
	c.u32(&v)
	if c.dec {
		*p = types.ProcessID(int32(v))
	}
	if *p < min || *p >= MaxProcs {
		c.fail(fmt.Errorf("%w: process id %d out of range [%d, %d)", ErrBadFrame, *p, min, MaxProcs))
	}
}

// count codes a non-negative integer bounded by limit.
func (c *coder) count(p *int, limit int, what string) {
	v := uint32(*p)
	c.u32(&v)
	if c.dec {
		*p = int(v)
	}
	if *p < 0 || *p > limit {
		c.fail(fmt.Errorf("%w: %s %d outside [0, %d]", ErrBadFrame, what, *p, limit))
	}
}

// name codes a length-prefixed string bounded by MaxName.
func (c *coder) name(p *string, what string) {
	n := len(*p)
	n16 := uint16(n)
	c.u16(&n16)
	if c.dec {
		n = int(n16)
	}
	if n > MaxName {
		c.fail(fmt.Errorf("%w: %s of %d bytes", ErrTooLarge, what, n))
		return
	}
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if len(c.buf)-c.off >= n {
		*p = string(c.buf[c.off : c.off+n])
		c.off += n
	} else {
		c.fail(errTruncated)
	}
}

// list codes the length of *s, a count bounded by limit, and when decoding
// sizes *s to it, reusing its capacity. Each element takes at least min
// bytes on the wire, so a count the frame's remaining bytes cannot satisfy
// is rejected here — before anything is allocated or walked, and in either
// direction. It returns the elements to walk, none after an error.
func list[T any](c *coder, s *[]T, limit, min int, what string) []T {
	n := len(*s)
	c.count(&n, limit, what)
	if c.err != nil {
		return nil
	}
	if rem := c.left(); n*min > rem {
		if c.dec {
			c.fail(fmt.Errorf("%w: %d %s in %d bytes", ErrBadFrame, n, what, rem))
		} else {
			c.fail(fmt.Errorf("%w: %d %s in %d bytes under MaxFrame", ErrTooLarge, n, what, rem))
		}
		return nil
	}
	if !c.dec {
		return *s
	}
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// axis8 codes one byte-coded sweep axis, bounded by MaxSweepAxis.
func (c *coder) axis8(s *[]uint8, what string) {
	vs := list(c, s, MaxSweepAxis, 1, what)
	for i := range vs {
		c.u8(&vs[i])
	}
}

// axisInts codes one integer sweep axis; values are bounded by MaxProcs like
// every other problem parameter on the wire.
func (c *coder) axisInts(s *[]int, what string) {
	vs := list(c, s, MaxSweepAxis, 4, what)
	for i := range vs {
		c.count(&vs[i], MaxProcs, what)
	}
}
