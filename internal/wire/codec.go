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
	if b, ok := m.(Batch); ok {
		return AppendBatch(dst, b.Ack, b.Msgs)
	}
	start := len(dst)
	e := encoder{buf: dst}
	e.u8(Version)
	e.u8(uint8(m.Type()))
	switch v := m.(type) {
	case Hello:
		e.pid(int64(v.From), -1)
		if v.Role != RolePeer && v.Role != RoleCtl {
			return dst, fmt.Errorf("%w: hello role %d", ErrBadFrame, v.Role)
		}
		e.u8(uint8(v.Role))
		e.count(v.N, MaxProcs, "hello n")
		e.u64(v.Session)
		if v.MaxVersion > Version {
			e.u8(v.MaxVersion)
		}
	case Start:
		e.u64(v.Instance)
		e.count(v.K, MaxProcs, "start k")
		e.count(v.T, MaxProcs, "start t")
		e.u8(v.Proto)
		e.count(v.Ell, MaxProcs, "start ell")
		e.i64(int64(v.Input))
	case StartAck:
		e.u64(v.Instance)
		e.pid(int64(v.From), 0)
	case PullTable:
		e.u64(v.Instance)
	case Table:
		e.u64(v.Instance)
		e.count(v.K, MaxProcs, "table k")
		e.count(v.T, MaxProcs, "table t")
		e.count(len(v.Rows), MaxProcs, "table rows")
		for _, r := range v.Rows {
			if r.Decided {
				e.u8(1)
			} else {
				e.u8(0)
			}
			e.i64(int64(r.Value))
		}
	case PullMetrics:
		// No fields.
	case Metrics:
		e.count(len(v.Values), MaxValues, "metrics values")
		for _, mv := range v.Values {
			e.name(mv.Name, "metrics value name")
			e.i64(mv.Value)
		}
		e.count(len(v.Hists), MaxHists, "metrics hists")
		for _, h := range v.Hists {
			e.name(h.Name, "metrics histogram name")
			e.u64(h.Count)
			e.i64(h.SumMicros)
			e.i64(h.MinMicros)
			e.i64(h.MaxMicros)
			e.count(len(h.Buckets), MaxBuckets+1, "metrics buckets")
			for _, b := range h.Buckets {
				e.i64(b.UpperMicros)
				e.u64(b.Count)
			}
		}
	case AcsSubmit:
		e.i64(int64(v.Value))
	case AcsAck:
		e.u64(v.Round)
	case PullAcsRound:
		e.u64(v.Round)
	case AcsRound:
		e.u64(v.Round)
		e.bool(v.Closed)
		e.count(len(v.Slots), MaxProcs, "acs-round slots")
		for _, s := range v.Slots {
			if s.Status > AcsOut {
				return dst, fmt.Errorf("%w: acs slot status %d", ErrBadFrame, s.Status)
			}
			e.u8(s.Status)
			e.bool(s.Held)
			e.bool(s.Noop)
			e.i64(int64(s.Value))
		}
	case PullLog:
		e.u64(v.Start)
		e.count(v.Max, MaxLogEntries, "pull-log max")
	case Log:
		e.u64(v.Total)
		e.u64(v.Start)
		e.count(len(v.Entries), MaxLogEntries, "log entries")
		for _, le := range v.Entries {
			e.u64(le.Round)
			e.pid(int64(le.Proposer), 0)
			e.i64(int64(le.Value))
		}
	case SweepJob:
		e.u64(v.Job)
		e.u64(v.Seed)
		e.axis8(v.Models, "sweep models")
		e.axis8(v.Validities, "sweep validities")
		e.axisInts(v.Ns, "sweep n")
		e.axisInts(v.Ks, "sweep k")
		e.axisInts(v.Ts, "sweep t")
		e.axis8(v.Plans, "sweep plans")
		e.count(v.Trials, MaxSweepRuns, "sweep trials")
		e.count(v.Runs, MaxSweepRuns, "sweep runs")
		e.u64(v.First)
		e.count(v.Count, MaxSweepCells, "sweep count")
	case SweepResult:
		e.u64(v.Job)
		e.u64(v.First)
		e.count(len(v.Records), MaxSweepCells, "sweep records")
		for i := range v.Records {
			e.sweepRecord(&v.Records[i])
		}
	default:
		return dst, fmt.Errorf("%w: unknown message %T", ErrBadFrame, m)
	}
	if e.err != nil {
		return dst, e.err
	}
	if len(e.buf)-start > MaxFrame {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(e.buf)-start)
	}
	return e.buf, nil
}

// Decode parses one frame body. It is strict: the version and type must be
// known, every count must respect the package limits, and the body must be
// exactly the length its type demands — trailing bytes are an error.
func Decode(body []byte) (Msg, error) {
	d := &decoder{buf: body}
	v := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	if v == VersionBatch {
		var b Batch
		if err := DecodeBatchInto(body, &b); err != nil {
			return nil, err
		}
		return b, nil
	}
	if v != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	t := MsgType(d.u8())
	var m Msg
	switch t {
	case TypeHello:
		h := Hello{}
		h.From = types.ProcessID(d.pid(-1))
		role := Role(d.u8())
		if d.err == nil && role != RolePeer && role != RoleCtl {
			return nil, fmt.Errorf("%w: hello role %d", ErrBadFrame, role)
		}
		h.Role = role
		h.N = d.count(MaxProcs, "hello n")
		h.Session = d.u64()
		h.MaxVersion = 1
		if d.err == nil && d.off < len(d.buf) {
			mv := d.u8()
			if d.err == nil && mv <= Version {
				// A v1-only sender omits the byte entirely; accepting an
				// explicit 0 or 1 would break canonical encoding.
				return nil, fmt.Errorf("%w: hello max version %d must be omitted", ErrBadFrame, mv)
			}
			h.MaxVersion = mv
		}
		m = h
	case TypeStart:
		s := Start{}
		s.Instance = d.u64()
		s.K = d.count(MaxProcs, "start k")
		s.T = d.count(MaxProcs, "start t")
		s.Proto = d.u8()
		s.Ell = d.count(MaxProcs, "start ell")
		s.Input = types.Value(d.i64())
		m = s
	case TypeStartAck:
		m = StartAck{Instance: d.u64(), From: types.ProcessID(d.pid(0))}
	case TypePullTable:
		m = PullTable{Instance: d.u64()}
	case TypeTable:
		tb := Table{}
		tb.Instance = d.u64()
		tb.K = d.count(MaxProcs, "table k")
		tb.T = d.count(MaxProcs, "table t")
		rows := d.count(MaxProcs, "table rows")
		if d.err == nil {
			// Each row is at least 9 bytes; reject counts the remaining
			// bytes cannot satisfy before allocating.
			if rem := len(d.buf) - d.off; rows*9 > rem {
				return nil, fmt.Errorf("%w: %d table rows in %d bytes", ErrBadFrame, rows, rem)
			}
			tb.Rows = make([]TableRow, rows)
			for i := range tb.Rows {
				tb.Rows[i].Decided = d.bool()
				tb.Rows[i].Value = types.Value(d.i64())
			}
		}
		m = tb
	case TypeAcsSubmit:
		m = AcsSubmit{Value: types.Value(d.i64())}
	case TypeAcsAck:
		m = AcsAck{Round: d.u64()}
	case TypePullAcsRound:
		m = PullAcsRound{Round: d.u64()}
	case TypeAcsRound:
		ar := AcsRound{}
		ar.Round = d.u64()
		ar.Closed = d.bool()
		slots := d.count(MaxProcs, "acs-round slots")
		if d.err == nil {
			// Each slot is 11 bytes; reject counts the remaining bytes
			// cannot satisfy before allocating.
			if rem := len(d.buf) - d.off; slots*11 > rem {
				return nil, fmt.Errorf("%w: %d acs slots in %d bytes", ErrBadFrame, slots, rem)
			}
			if slots > 0 {
				ar.Slots = make([]AcsSlot, slots)
				for i := range ar.Slots {
					s := &ar.Slots[i]
					s.Status = d.u8()
					if d.err == nil && s.Status > AcsOut {
						return nil, fmt.Errorf("%w: acs slot status %d", ErrBadFrame, s.Status)
					}
					s.Held = d.bool()
					s.Noop = d.bool()
					s.Value = types.Value(d.i64())
				}
			}
		}
		m = ar
	case TypePullLog:
		pl := PullLog{}
		pl.Start = d.u64()
		pl.Max = d.count(MaxLogEntries, "pull-log max")
		m = pl
	case TypeLog:
		lg := Log{}
		lg.Total = d.u64()
		lg.Start = d.u64()
		entries := d.count(MaxLogEntries, "log entries")
		if d.err == nil {
			// Each entry is 20 bytes; reject counts the remaining bytes
			// cannot satisfy before allocating.
			if rem := len(d.buf) - d.off; entries*20 > rem {
				return nil, fmt.Errorf("%w: %d log entries in %d bytes", ErrBadFrame, entries, rem)
			}
			if entries > 0 {
				lg.Entries = make([]LogEntry, entries)
				for i := range lg.Entries {
					lg.Entries[i].Round = d.u64()
					lg.Entries[i].Proposer = types.ProcessID(d.pid(0))
					lg.Entries[i].Value = types.Value(d.i64())
				}
			}
		}
		m = lg
	case TypeSweepJob:
		sj := SweepJob{}
		sj.Job = d.u64()
		sj.Seed = d.u64()
		sj.Models = d.axis8("sweep models")
		sj.Validities = d.axis8("sweep validities")
		sj.Ns = d.axisInts("sweep n")
		sj.Ks = d.axisInts("sweep k")
		sj.Ts = d.axisInts("sweep t")
		sj.Plans = d.axis8("sweep plans")
		sj.Trials = d.count(MaxSweepRuns, "sweep trials")
		sj.Runs = d.count(MaxSweepRuns, "sweep runs")
		sj.First = d.u64()
		sj.Count = d.count(MaxSweepCells, "sweep count")
		m = sj
	case TypeSweepResult:
		sr := SweepResult{}
		sr.Job = d.u64()
		sr.First = d.u64()
		records := d.count(MaxSweepCells, "sweep records")
		if d.err == nil {
			// Each record is at least 93 bytes; reject counts the remaining
			// bytes cannot satisfy before allocating.
			if rem := len(d.buf) - d.off; records*93 > rem {
				return nil, fmt.Errorf("%w: %d sweep records in %d bytes", ErrBadFrame, records, rem)
			}
			if records > 0 {
				sr.Records = make([]SweepRecord, records)
				for i := range sr.Records {
					d.sweepRecord(&sr.Records[i])
					if d.err != nil {
						break
					}
				}
			}
		}
		m = sr
	case TypePullMetrics:
		m = PullMetrics{}
	case TypeMetrics:
		mt := Metrics{}
		values := d.count(MaxValues, "metrics values")
		if d.err == nil {
			// Each value is at least 10 bytes (empty name); reject counts the
			// remaining bytes cannot satisfy before allocating.
			if rem := len(d.buf) - d.off; values*10 > rem {
				return nil, fmt.Errorf("%w: %d metric values in %d bytes", ErrBadFrame, values, rem)
			}
			if values > 0 {
				mt.Values = make([]MetricValue, values)
				for i := range mt.Values {
					mt.Values[i].Name = d.name()
					mt.Values[i].Value = d.i64()
				}
			}
		}
		hists := d.count(MaxHists, "metrics hists")
		if d.err == nil {
			// Each histogram is at least 38 bytes (empty name, no buckets);
			// reject counts the remaining bytes cannot satisfy before
			// allocating.
			if rem := len(d.buf) - d.off; hists*38 > rem {
				return nil, fmt.Errorf("%w: %d histograms in %d bytes", ErrBadFrame, hists, rem)
			}
			mt.Hists = make([]Hist, hists)
			for i := range mt.Hists {
				h := &mt.Hists[i]
				h.Name = d.name()
				h.Count = d.u64()
				h.SumMicros = d.i64()
				h.MinMicros = d.i64()
				h.MaxMicros = d.i64()
				buckets := d.count(MaxBuckets+1, "metrics buckets")
				if d.err != nil {
					break
				}
				if rem := len(d.buf) - d.off; buckets*16 > rem {
					return nil, fmt.Errorf("%w: %d buckets in %d bytes", ErrBadFrame, buckets, rem)
				}
				if buckets > 0 {
					h.Buckets = make([]HistBucket, buckets)
					for j := range h.Buckets {
						h.Buckets[j].UpperMicros = d.i64()
						h.Buckets[j].Count = d.u64()
					}
				}
			}
		}
		m = mt
	default:
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadFrame, uint8(t))
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %v", ErrBadFrame, len(d.buf)-d.off, t)
	}
	return m, nil
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

// encoder appends big-endian fields, latching the first range error.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

// bool appends the canonical boolean byte (0 or 1).
func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v)) }

// pid encodes a process id, which must lie in [min, MaxProcs).
func (e *encoder) pid(v int64, min int64) {
	if v < min || v >= MaxProcs {
		e.fail(fmt.Errorf("%w: process id %d out of range [%d, %d)", ErrBadFrame, v, min, MaxProcs))
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(int32(v)))
}

// count encodes a non-negative small integer bounded by limit.
func (e *encoder) count(v, limit int, what string) {
	if v < 0 || v > limit {
		e.fail(fmt.Errorf("%w: %s %d outside [0, %d]", ErrBadFrame, what, v, limit))
		return
	}
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(v))
}

// name appends a length-prefixed string bounded by MaxName.
func (e *encoder) name(s, what string) {
	if len(s) > MaxName {
		e.fail(fmt.Errorf("%w: %s of %d bytes", ErrTooLarge, what, len(s)))
		return
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// axis8 appends one byte-coded sweep axis, bounded by MaxSweepAxis.
func (e *encoder) axis8(vs []uint8, what string) {
	e.count(len(vs), MaxSweepAxis, what)
	e.buf = append(e.buf, vs...)
}

// axisInts appends one integer sweep axis; values are bounded by MaxProcs
// like every other problem parameter on the wire.
func (e *encoder) axisInts(vs []int, what string) {
	e.count(len(vs), MaxSweepAxis, what)
	for _, v := range vs {
		e.count(v, MaxProcs, what)
	}
}

// sweepRecord appends one sweep record in field order.
func (e *encoder) sweepRecord(r *SweepRecord) {
	e.u64(r.Cell)
	e.u8(r.Model)
	e.u8(r.Validity)
	e.count(r.N, MaxProcs, "sweep record n")
	e.count(r.K, MaxProcs, "sweep record k")
	e.count(r.T, MaxProcs, "sweep record t")
	e.u8(r.Plan)
	e.count(r.Trial, MaxSweepRuns, "sweep record trial")
	e.u64(r.Seed)
	if r.Status < SweepSolvable || r.Status > SweepInvalid {
		e.fail(fmt.Errorf("%w: sweep record status %d", ErrBadFrame, r.Status))
		return
	}
	e.u8(r.Status)
	e.name(r.Lemma, "sweep record lemma")
	e.name(r.Protocol, "sweep record protocol")
	e.count(r.Runs, MaxSweepRuns, "sweep record runs")
	e.count(r.Violations, MaxSweepRuns, "sweep record violations")
	e.count(r.RunErrors, MaxSweepRuns, "sweep record run errors")
	e.bool(r.TermOK)
	e.bool(r.AgreeOK)
	e.bool(r.ValidOK)
	e.i64(r.Events)
	e.i64(r.Messages)
	e.count(r.MaxDistinct, MaxProcs, "sweep record max distinct")
	e.i64(r.MeanDistinctMilli)
	e.i64(r.DefaultDecisions)
	e.name(r.FirstViolation, "sweep record violation text")
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// decoder consumes big-endian fields, latching the first error. Every read
// checks the remaining length first, so no input can index past the buffer.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf)-d.off < n {
		d.fail(fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrBadFrame, n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

// bool reads a strict boolean: exactly 0 or 1, keeping the encoding
// canonical.
func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: boolean byte not 0 or 1", ErrBadFrame))
		return false
	}
}

// pid reads a process id and range-checks it against [min, MaxProcs).
func (d *decoder) pid(min int32) int32 {
	v := int32(d.u32())
	if d.err != nil {
		return 0
	}
	if v < min || v >= MaxProcs {
		d.fail(fmt.Errorf("%w: process id %d out of range [%d, %d)", ErrBadFrame, v, min, MaxProcs))
		return 0
	}
	return v
}

// count reads a bounded non-negative integer.
func (d *decoder) count(limit int, what string) int {
	v := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(v) > int64(limit) {
		d.fail(fmt.Errorf("%w: %s %d above limit %d", ErrBadFrame, what, v, limit))
		return 0
	}
	return int(v)
}

// axis8 reads one byte-coded sweep axis, bounded by MaxSweepAxis.
func (d *decoder) axis8(what string) []uint8 {
	n := d.count(MaxSweepAxis, what)
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]uint8, n)
	copy(out, b)
	return out
}

// axisInts reads one integer sweep axis, each value bounded by MaxProcs.
func (d *decoder) axisInts(what string) []int {
	n := d.count(MaxSweepAxis, what)
	if d.err != nil || n == 0 {
		return nil
	}
	if rem := len(d.buf) - d.off; n*4 > rem {
		d.fail(fmt.Errorf("%w: %s axis of %d values in %d bytes", ErrBadFrame, what, n, rem))
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.count(MaxProcs, what)
	}
	return out
}

// sweepRecord reads one sweep record in field order.
func (d *decoder) sweepRecord(r *SweepRecord) {
	r.Cell = d.u64()
	r.Model = d.u8()
	r.Validity = d.u8()
	r.N = d.count(MaxProcs, "sweep record n")
	r.K = d.count(MaxProcs, "sweep record k")
	r.T = d.count(MaxProcs, "sweep record t")
	r.Plan = d.u8()
	r.Trial = d.count(MaxSweepRuns, "sweep record trial")
	r.Seed = d.u64()
	r.Status = d.u8()
	if d.err == nil && (r.Status < SweepSolvable || r.Status > SweepInvalid) {
		d.fail(fmt.Errorf("%w: sweep record status %d", ErrBadFrame, r.Status))
		return
	}
	r.Lemma = d.name()
	r.Protocol = d.name()
	r.Runs = d.count(MaxSweepRuns, "sweep record runs")
	r.Violations = d.count(MaxSweepRuns, "sweep record violations")
	r.RunErrors = d.count(MaxSweepRuns, "sweep record run errors")
	r.TermOK = d.bool()
	r.AgreeOK = d.bool()
	r.ValidOK = d.bool()
	r.Events = d.i64()
	r.Messages = d.i64()
	r.MaxDistinct = d.count(MaxProcs, "sweep record max distinct")
	r.MeanDistinctMilli = d.i64()
	r.DefaultDecisions = d.i64()
	r.FirstViolation = d.name()
}

// name reads a length-prefixed name bounded by MaxName.
func (d *decoder) name() string {
	n := int(d.u16())
	if d.err != nil {
		return ""
	}
	if n > MaxName {
		d.fail(fmt.Errorf("%w: name of %d bytes", ErrBadFrame, n))
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
