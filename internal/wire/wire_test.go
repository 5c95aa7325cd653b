package wire

import (
	"bytes"
	"errors"
	"math"
	"net"
	"reflect"
	"testing"

	"kset/internal/types"
)

// sampleMsgs covers every frame type with representative field values.
func sampleMsgs() []Msg {
	return []Msg{
		Hello{From: -1, Role: RoleCtl, N: 5, MaxVersion: 1},
		Hello{From: 3, Role: RolePeer, N: 5, Session: 0xfeedface, MaxVersion: 1},
		Hello{From: 3, Role: RolePeer, N: 5, Session: 0xfeedface, MaxVersion: VersionBatch},
		Hello{From: 3, Role: RolePeer, N: 5, Session: 0xfeedface, MaxVersion: 2},
		Start{Instance: 42, K: 2, T: 1, Proto: 1, Ell: 0, Input: -7},
		Start{Instance: 1<<63 + 9, K: 3, T: 2, Proto: 4, Ell: 2, Input: types.DefaultValue},
		StartAck{Instance: 42, From: 0},
		PullTable{Instance: 42},
		Table{Instance: 42, K: 2, T: 1, Rows: []TableRow{
			{Decided: true, Value: 3}, {Decided: false}, {Decided: true, Value: -1},
		}},
		PullMetrics{},
		Metrics{},
		Metrics{Values: []MetricValue{{Name: "kset_frames_sent_total", Value: 128}}},
		Metrics{Values: []MetricValue{
			{Name: "kset_frames_sent_total", Value: 128},
			{Name: `kset_link_unsent{peer="1"}`, Value: -1},
		}, Hists: []Hist{
			{
				Name: "kset_decide_latency_seconds", Count: 3,
				SumMicros: 5055, MinMicros: 500, MaxMicros: 5000,
				Buckets: []HistBucket{
					{UpperMicros: 1000, Count: 1},
					{UpperMicros: 10000, Count: 2},
					{UpperMicros: math.MaxInt64, Count: 0},
				},
			},
			{Name: "kset_ack_rtt_seconds"},
		}},
		Batch{},
		Batch{Ack: AckState{0xfeedface, 40}},
		Batch{Ack: fullAckState()},
		Batch{
			Ack: AckState{0xfeedface, 40, 0b110},
			Msgs: []BatchMsg{
				{Kind: TypeProto, Seq: 17, Instance: 42, From: 1,
					Payload: types.Payload{Kind: types.KindEcho, Value: 9, Origin: 2}},
				{Kind: TypeDecide, Seq: 18, Instance: 42, From: 4, Value: 3},
				{Kind: TypeProto, Seq: 19, Instance: 7, From: 0,
					Payload: types.Payload{Kind: types.KindInput, Value: -5, Origin: 0}},
				{Kind: TypePropose, Seq: 20, Instance: 3, From: 1, Origin: 2, Value: 11},
				{Kind: TypePropose, Seq: 21, Instance: 4, From: 0, Origin: 0, Noop: true},
			},
		},
		AcsSubmit{Value: 77},
		AcsSubmit{Value: -3},
		AcsAck{Round: 5},
		AcsAck{},
		PullAcsRound{Round: 3},
		AcsRound{Round: 3, Closed: true, Slots: []AcsSlot{
			{Status: AcsIn, Held: true, Value: 11},
			{Status: AcsOut},
			{Status: AcsIn, Held: true, Noop: true},
			{Status: AcsPending},
		}},
		AcsRound{Round: 9},
		PullLog{Start: 2, Max: 100},
		PullLog{},
		Log{Total: 7, Start: 2, Entries: []LogEntry{
			{Round: 2, Proposer: 0, Value: 5},
			{Round: 2, Proposer: 3, Value: -9},
		}},
		Log{},
		SweepJob{
			Job: 3, Seed: 0xdecafbad,
			Models:     []uint8{0, 3},
			Validities: []uint8{3, 6},
			Ns:         []int{8, 16, 64},
			Ks:         []int{2, 3},
			Ts:         []int{1, 2, 4},
			Plans:      []uint8{1, 3},
			Trials:     2, Runs: 16,
			First: 12, Count: 6,
		},
		SweepJob{Seed: 1, Trials: 1, Runs: 1},
		SweepResult{Job: 3, First: 12, Records: []SweepRecord{
			{
				Cell: 12, Model: 0, Validity: 3, N: 8, K: 2, T: 1, Plan: 1,
				Trial: 0, Seed: 0x9e3779b9, Status: SweepSolvable,
				Lemma: "Lemma 3.1", Protocol: "FloodMin",
				Runs: 16, TermOK: true, AgreeOK: true, ValidOK: true,
				Events: 4096, Messages: 1024, MaxDistinct: 2,
				MeanDistinctMilli: 1500, DefaultDecisions: 3,
			},
			{
				Cell: 13, Model: 1, Validity: 1, N: 8, K: 2, T: 4, Plan: 2,
				Trial: 1, Seed: 7, Status: SweepImpossible, Lemma: "Lemma 3.5",
				TermOK: true, AgreeOK: true, ValidOK: true,
			},
			{
				Cell: 14, Model: 3, Validity: 6, N: 4, K: 2, T: 5, Plan: 3,
				Status: SweepInvalid, TermOK: true, AgreeOK: true, ValidOK: true,
			},
			{
				Cell: 15, Model: 2, Validity: 4, N: 6, K: 3, T: 2, Plan: 1,
				Status: SweepOpen, Runs: 8, Violations: 2, RunErrors: 1,
				AgreeOK: true, FirstViolation: "checker: termination violated",
			},
		}},
		SweepResult{Job: 4, First: 0},
	}
}

func TestRoundTripEveryType(t *testing.T) {
	for _, m := range sampleMsgs() {
		body, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", m, err)
		}
		got, err := Decode(body)
		if err != nil {
			t.Fatalf("Decode(Encode(%#v)): %v", m, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Errorf("round trip changed message:\n%#v\nvs\n%#v", m, got)
		}
	}
}

// normalize maps nil and empty slices to a comparable form: the codec cannot
// distinguish them, and does not need to.
func normalize(m Msg) Msg {
	switch v := m.(type) {
	case Table:
		if len(v.Rows) == 0 {
			v.Rows = nil
		}
		return v
	case Metrics:
		if len(v.Values) == 0 {
			v.Values = nil
		}
		if len(v.Hists) == 0 {
			v.Hists = nil
		}
		for i := range v.Hists {
			if len(v.Hists[i].Buckets) == 0 {
				v.Hists[i].Buckets = nil
			}
		}
		return v
	case Batch:
		if len(v.Ack) == 0 {
			v.Ack = nil
		}
		if len(v.Msgs) == 0 {
			v.Msgs = nil
		}
		return v
	case AcsRound:
		if len(v.Slots) == 0 {
			v.Slots = nil
		}
		return v
	case Log:
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
		return v
	case Hello:
		// An absent MaxVersion decodes as 1; 0 and 1 encode identically.
		if v.MaxVersion == 0 {
			v.MaxVersion = 1
		}
		return v
	case SweepJob:
		if len(v.Models) == 0 {
			v.Models = nil
		}
		if len(v.Validities) == 0 {
			v.Validities = nil
		}
		if len(v.Ns) == 0 {
			v.Ns = nil
		}
		if len(v.Ks) == 0 {
			v.Ks = nil
		}
		if len(v.Ts) == 0 {
			v.Ts = nil
		}
		if len(v.Plans) == 0 {
			v.Plans = nil
		}
		return v
	case SweepResult:
		if len(v.Records) == 0 {
			v.Records = nil
		}
		return v
	}
	return m
}

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("WriteMsg(%#v): %v", m, err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("ReadMsg #%d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Errorf("frame %d: got %#v want %#v", i, got, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes left over after reading all frames", buf.Len())
	}
}

// countingConn is a net.Conn that counts the Writes reaching it and keeps
// their bytes; nothing else of the interface is called.
type countingConn struct {
	net.Conn
	writes int
	buf    bytes.Buffer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestWriteMsgOneWrite pins WriteMsg to one Write per frame, length prefix
// included: on a raw connection, one syscall and one segment per request and
// per reply. The bytes still read back as the same frames.
func TestWriteMsgOneWrite(t *testing.T) {
	for _, m := range sampleMsgs() {
		var c countingConn
		if err := WriteMsg(&c, m); err != nil {
			t.Fatalf("WriteMsg(%v): %v", m.Type(), err)
		}
		if c.writes != 1 {
			t.Errorf("%v: %d Writes for one frame, want 1", m.Type(), c.writes)
		}
		got, err := ReadMsg(&c.buf)
		if err != nil || !reflect.DeepEqual(normalize(m), normalize(got)) {
			t.Errorf("%v: read back %#v, %v", m.Type(), got, err)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	valid, err := Encode(PullTable{Instance: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"version only", []byte{Version}},
		{"bad version", append([]byte{9}, valid[1:]...)},
		{"unknown type", []byte{Version, 0xEE}},
		{"truncated pull-table", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"hello bad role", mustEncodePatch(t, Hello{From: 0, Role: RolePeer, N: 3}, 6, 7)},
		{"bool not 0/1", mustEncodePatch(t,
			Table{Instance: 1, K: 1, T: 0, Rows: []TableRow{{Decided: false, Value: 0}}},
			22, 2)},
		{"hello explicit v1 max version", append(mustEncode(t,
			Hello{From: 0, Role: RolePeer, N: 3}), 1)},
		{"batch wrong type byte", []byte{VersionBatch, uint8(TypeProto), 0, 0, 0, 0, 0, 0, 0, 0}},
		{"metrics hostile value count", []byte{Version, uint8(TypeMetrics), 0xFF, 0xFF, 0xFF, 0xFF}},
		{"metrics value count above limit", append([]byte{Version, uint8(TypeMetrics),
			0, 0, 0x10, 0x01}, make([]byte, 10*(MaxValues+1)+4)...)},
		{"metrics value count over bytes", []byte{Version, uint8(TypeMetrics),
			0, 0, 0x10, 0x00, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}},
		{"batch hostile ack word count", []byte{VersionBatch, uint8(TypeBatch), 0xFF, 0xFF, 0xFF, 0xFF}},
		{"batch ack word count above limit", append([]byte{VersionBatch, uint8(TypeBatch),
			0, 0, 0x04, 0x03}, make([]byte, 8*(2+MaxAckWords+1)+4)...)},
		{"batch ack word count over bytes", []byte{VersionBatch, uint8(TypeBatch),
			0, 0, 0, 2, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"batch one-word ack state", []byte{VersionBatch, uint8(TypeBatch),
			0, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0}},
		{"batch version 2", v2BatchBody()},
		{"batch msg count over bytes", []byte{VersionBatch, uint8(TypeBatch),
			0, 0, 0, 0, 0, 0, 0, 3, 1, 2}},
		{"batch bad msg kind", mustEncodePatch(t, Batch{Msgs: []BatchMsg{
			{Kind: TypeProto, Seq: 1, Instance: 1}}}, 10, 0xEE)},
		{"batch trailing bytes", append(mustEncode(t, Batch{Ack: AckState{1, 2}}), 0)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.body); err == nil {
			t.Errorf("%s: Decode accepted %x", tc.name, tc.body)
		}
	}
	// Frames the node no longer speaks at top level are malformed, not a
	// second delivery path.
	for i, body := range retiredBodies() {
		if _, err := Decode(body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("retired body %d (%x): Decode error = %v, want ErrBadFrame", i, body, err)
		}
	}
}

// retiredBodies are well-formed version-1 bodies (every field zero) of the
// frame types whose top-level form is gone: proto, ack, decide, acs-propose,
// pull-stats and stats, by wire number and field bytes.
func retiredBodies() [][]byte {
	var bodies [][]byte
	for _, b := range [][2]int{{4, 33}, {5, 8}, {6, 28}, {14, 33}, {9, 0}, {10, 4}} {
		bodies = append(bodies, append([]byte{Version, byte(b[0])}, make([]byte, b[1])...))
	}
	return bodies
}

// fullAckState is an ack state at its bound: MaxAckWords bit words, a whole
// dedup window above the watermark.
func fullAckState() AckState {
	a := AckState{0xfeedface, 1 << 40}
	for i := 0; i < MaxAckWords; i++ {
		a = append(a, uint64(i)<<1|1<<63)
	}
	return a
}

// v2BatchBody is a version-2 batch frame carrying one ack and no message,
// the framing version 3 replaced.
func v2BatchBody() []byte {
	return []byte{2, uint8(TypeBatch), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0}
}

func mustEncode(t *testing.T, m Msg) []byte {
	t.Helper()
	body, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// mustEncodePatch encodes m and overwrites one byte, for malformed-input
// cases that cannot be produced by Encode.
func mustEncodePatch(t *testing.T, m Msg, off int, b byte) []byte {
	t.Helper()
	body := mustEncode(t, m)
	if off >= len(body) {
		t.Fatalf("patch offset %d beyond body of %d bytes", off, len(body))
	}
	body[off] = b
	return body
}

func TestEncodeRejects(t *testing.T) {
	cases := []struct {
		name string
		m    Msg
	}{
		{"hello role", Hello{From: 0, Role: 9, N: 3}},
		{"hello n negative", Hello{From: 0, Role: RolePeer, N: -1}},
		{"hello n huge", Hello{From: 0, Role: RolePeer, N: MaxProcs + 1}},
		{"pid negative", StartAck{From: -2}},
		{"pid huge", StartAck{From: MaxProcs}},
		{"start k negative", Start{K: -1}},
		{"table too wide", Table{Rows: make([]TableRow, MaxProcs+1)}},
		{"metrics value name too long", Metrics{Values: []MetricValue{{Name: string(make([]byte, MaxName+1))}}}},
		{"metrics too many values", Metrics{Values: make([]MetricValue, MaxValues+1)}},
		{"metrics name too long", Metrics{Hists: []Hist{{Name: string(make([]byte, MaxName+1))}}}},
		{"metrics too many hists", Metrics{Hists: make([]Hist, MaxHists+1)}},
		{"metrics too many buckets", Metrics{Hists: []Hist{{Name: "h", Buckets: make([]HistBucket, MaxBuckets+2)}}}},
		{"batch ack state too many words", Batch{Ack: make(AckState, 2+MaxAckWords+1)}},
		{"batch ack state of one word", Batch{Ack: AckState{1}}},
		{"batch too many msgs", Batch{Msgs: protoMsgs(MaxBatchMsgs + 1)}},
		{"batch bad msg kind", Batch{Msgs: []BatchMsg{{Kind: TypeHello}}}},
		{"batch msg pid", Batch{Msgs: []BatchMsg{{Kind: TypeProto, From: -1}}}},
		{"batch propose origin pid", Batch{Msgs: []BatchMsg{{Kind: TypePropose, Origin: MaxProcs}}}},
		{"acs-round too many slots", AcsRound{Slots: make([]AcsSlot, MaxProcs+1)}},
		{"acs-round bad status", AcsRound{Slots: []AcsSlot{{Status: AcsOut + 1}}}},
		{"pull-log max negative", PullLog{Max: -1}},
		{"pull-log max huge", PullLog{Max: MaxLogEntries + 1}},
		{"log too many entries", Log{Entries: make([]LogEntry, MaxLogEntries+1)}},
		{"log entry pid", Log{Entries: []LogEntry{{Proposer: -1}}}},
		{"pointer to a frame value", &PullTable{Instance: 1}},
	}
	for _, tc := range cases {
		if _, err := Encode(tc.m); err == nil {
			t.Errorf("%s: Encode accepted %#v", tc.name, tc.m)
		}
	}
}

// TestMetricsValuesAtLimit round-trips a metrics reply carrying exactly
// MaxValues counters, the most a node may report.
func TestMetricsValuesAtLimit(t *testing.T) {
	m := Metrics{Values: make([]MetricValue, MaxValues)}
	for i := range m.Values {
		m.Values[i] = MetricValue{Name: "v", Value: int64(i)}
	}
	got, err := Decode(mustEncode(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(m)) {
		t.Error("metrics reply at the value limit changed in the round trip")
	}
}

func TestReadMsgLimits(t *testing.T) {
	// A length prefix above MaxFrame must be rejected before allocation.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMsg(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized prefix: got %v, want ErrTooLarge", err)
	}
	// Encoding an in-limit table and truncating the stream must error, not
	// hang or panic.
	buf.Reset()
	if err := WriteMsg(&buf, PullTable{Instance: 1}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := ReadMsg(trunc); err == nil {
		t.Error("truncated stream: ReadMsg returned nil error")
	}
}
