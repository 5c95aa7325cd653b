// Package wire defines the versioned binary protocol spoken between ksetd
// cluster nodes (and between ksetctl and a node): a length-prefixed frame
// carrying either one batch of sequenced peer messages (mpnet payloads,
// decide announcements and ACS proposals in flight between two nodes, plus
// transport acks; see batch.go) or one word of the small control vocabulary
// (hello, instance-start, table/metrics pulls, the ACS and sweep requests).
//
// The codec is deliberately boring: fixed-width big-endian integers, one
// type byte, no compression, no reflection. Each frame type states its field
// order once, in one walk (its code method) that a coder runs in either
// direction: encoding appends each field, decoding reads it back into the
// same place, and every check — counts against their limits, process-id
// ranges, enum bytes, canonical booleans, name lengths, and the bytes-left
// check before a list is sized — runs in both, so the encoder and the decoder
// cannot drift apart. Decoding is strict — every frame must carry the exact
// version, a known type, and exactly the bytes its type demands, with every
// count and length bounds-checked before allocation — so a malformed or
// hostile peer can be rejected without damage. Encoding is canonical:
// decode(encode(m)) == m and encode(decode(b)) == b for every accepted b,
// which FuzzWireRoundTrip enforces, and TestFrameBytesPinned pins the bytes.
//
// The package is pure computation (no I/O side effects beyond the supplied
// readers and writers, no clocks, no goroutines), and ksetlint holds it to
// its determinism analyzer.
package wire

import (
	"errors"
	"fmt"

	"kset/internal/types"
)

// Version is the wire format version carried by every frame.
const Version = 1

// Limits enforced during decode, before any allocation is sized by peer
// input. MaxFrame bounds the whole frame body; the others bound counts
// inside it.
const (
	MaxFrame      = 1 << 20 // bytes in one frame body
	MaxProcs      = 1 << 12 // processes in a table
	MaxValues     = 1 << 12 // counters and gauges in a metrics reply
	MaxName       = 1 << 8  // bytes in a metric name
	MaxHists      = 1 << 9  // histograms in a metrics reply
	MaxBuckets    = 1 << 6  // finite buckets in one histogram
	MaxLogEntries = 1 << 12 // ordered-log entries in one Log reply
	MaxSweepAxis  = 1 << 6  // values per grid axis in a sweep job
	MaxSweepCells = 1 << 10 // cells per sweep job / records per result
	MaxSweepRuns  = 1 << 20 // runs, trials and per-record counters in sweeps
)

// Errors reported by the codec.
var (
	ErrBadFrame = errors.New("wire: malformed frame")
	ErrTooLarge = errors.New("wire: frame exceeds limit")
	ErrVersion  = errors.New("wire: unsupported version")
)

// MsgType enumerates the frame types.
type MsgType uint8

// Frame types. The numbers are fixed on the wire: a retired type keeps its
// slot as a blank and is rejected like any unknown type. TypeProto,
// TypeDecide and TypePropose are not frames of their own: they tag the
// sequenced messages inside a batch frame (BatchMsg.Kind).
const (
	TypeHello MsgType = iota + 1
	TypeStart
	TypeStartAck
	TypeProto
	_
	TypeDecide
	TypePullTable
	TypeTable
	_
	_
	TypePullMetrics
	TypeMetrics
	// TypeBatch is the version-2 coalesced frame carrying all sequenced peer
	// traffic: many messages plus a piggybacked ack vector in one write (see
	// batch.go).
	TypeBatch
	// TypePropose tags one node's proposal for an ACS round inside a batch;
	// the rest are the ACS/ordered-log control vocabulary spoken by ksetctl.
	TypePropose
	TypeAcsSubmit
	TypeAcsAck
	TypePullAcsRound
	TypeAcsRound
	TypePullLog
	TypeLog
	// TypeSweepJob asks a node to execute one shard of a grid sweep on a
	// control connection; TypeSweepResult is the strict request-reply answer
	// carrying the shard's records (see internal/grid).
	TypeSweepJob
	TypeSweepResult
)

// String names the type for logs and errors.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeStart:
		return "instance-start"
	case TypeStartAck:
		return "start-ack"
	case TypeProto:
		return "proto"
	case TypeDecide:
		return "decide"
	case TypePullTable:
		return "pull-table"
	case TypeTable:
		return "table"
	case TypePullMetrics:
		return "pull-metrics"
	case TypeMetrics:
		return "metrics"
	case TypeBatch:
		return "batch"
	case TypePropose:
		return "acs-propose"
	case TypeAcsSubmit:
		return "acs-submit"
	case TypeAcsAck:
		return "acs-ack"
	case TypePullAcsRound:
		return "pull-acs-round"
	case TypeAcsRound:
		return "acs-round"
	case TypePullLog:
		return "pull-log"
	case TypeLog:
		return "log"
	case TypeSweepJob:
		return "sweep-job"
	case TypeSweepResult:
		return "sweep-result"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Role distinguishes the two kinds of connections a node accepts.
type Role uint8

// Connection roles announced in Hello.
const (
	RolePeer Role = iota + 1 // another cluster node
	RoleCtl                  // a controller (ksetctl or a test driver)
)

// Msg is one decoded frame. The concrete types below enumerate the
// vocabulary.
type Msg interface {
	// Type returns the frame type tag.
	Type() MsgType
}

// Hello opens every connection: it authenticates the sender's identity for
// the rest of the stream (the cluster transport stamps From fields against
// it, mirroring mpnet's authentic sender ids).
type Hello struct {
	// From is the sender's process id; -1 for controllers.
	From types.ProcessID
	// Role says whether the connection carries peer traffic or control
	// requests.
	Role Role
	// N is the sender's view of the cluster size, checked against the
	// receiver's.
	N int
	// Session identifies one process incarnation of the sender. Link
	// sequence numbers are scoped to it: a receiver that sees a new session
	// from a peer resets its duplicate-suppression state, because the
	// restarted peer's sequence space restarts too (and its old process can
	// no longer emit duplicates).
	Session uint64
	// MaxVersion advertises the highest wire version the sender speaks. A
	// peer must offer VersionBatch, the framing of all sequenced traffic, or
	// the receiving node refuses the connection; controllers leave it unset.
	// Values 0 and 1 are omitted on the wire and decode reports an absent
	// field as 1, keeping the encoding canonical.
	MaxVersion uint8
}

// Start asks a node to start one consensus instance with the given local
// input. Every node of the cluster receives its own Start with its own
// input; the instance id ties them together.
type Start struct {
	// Instance identifies the consensus instance across the cluster.
	Instance uint64
	// K and T are the agreement and fault bounds for this instance.
	K, T int
	// Proto and Ell name the witness protocol (theory.ProtocolID; Ell is
	// the echo parameter when Proto is Protocol C). Proto 0 runs FloodMin.
	Proto uint8
	Ell   int
	// Input is this node's input value.
	Input types.Value
}

// StartAck confirms a Start was accepted and the instance is running.
type StartAck struct {
	Instance uint64
	From     types.ProcessID
}

// PullTable asks a node for its current decision table for an instance.
type PullTable struct {
	Instance uint64
}

// TableRow is one node's slot in a decision table.
type TableRow struct {
	Decided bool
	Value   types.Value
}

// Table is a node's current view of one instance: who has decided what, as
// heard through Decide frames (its own decision included).
type Table struct {
	Instance uint64
	K, T     int
	Rows     []TableRow
}

// PullMetrics asks a node for its metric registry: every counter and gauge
// plus histogram snapshots of its latency metrics (decision latency, ack
// round trips, backoff) — the cluster-wide view ksetctl aggregates across
// every node.
type PullMetrics struct{}

// HistBucket is one bucket of a histogram snapshot: the count of
// observations at or below UpperMicros (exclusive of the previous bucket's
// bound). The overflow bucket carries UpperMicros == math.MaxInt64.
type HistBucket struct {
	// UpperMicros is the bucket's inclusive upper bound in microseconds.
	UpperMicros int64
	// Count is the number of observations in this bucket (not cumulative).
	Count uint64
}

// Hist is one histogram snapshot in a Metrics reply. All durations are
// integer microseconds: the wire stays float-free, so every frame
// round-trips bit-exactly.
type Hist struct {
	Name  string
	Count uint64
	// SumMicros, MinMicros, MaxMicros summarize the raw observations. Min
	// and Max are 0 when Count is 0.
	SumMicros int64
	MinMicros int64
	MaxMicros int64
	Buckets   []HistBucket
}

// MetricValue is one counter or gauge reading, named as in the registry
// (labels included).
type MetricValue struct {
	Name  string
	Value int64
}

// Metrics is a node's registry dump: counters and gauges in one name-sorted
// list, histogram snapshots in another.
type Metrics struct {
	Values []MetricValue
	Hists  []Hist
}

// Propose is one node's proposal for one ACS round as the cluster node hands
// it to the ACS engine and takes it back for broadcast; between nodes it
// travels as a TypePropose batch message. The transport sender is the
// proposer itself or a relaying node (every node re-broadcasts each proposal
// it hears first-hand, so a proposal held by any correct node eventually
// reaches all of them — the crash-tolerant reliable broadcast the BKR
// reduction requires). Proposer names the round slot the value fills.
type Propose struct {
	Round    uint64
	Proposer types.ProcessID
	// Noop marks a placeholder proposal from a node with nothing to append
	// this round; noop slots are resolved like any other but excluded from
	// the ordered log.
	Noop  bool
	Value types.Value
}

// AcsSubmit asks a node to propose Value in its next ACS round.
type AcsSubmit struct {
	Value types.Value
}

// AcsAck answers an AcsSubmit with the round the value was assigned to, or
// 0 when the engine rejected the submission (round window full).
type AcsAck struct {
	Round uint64
}

// PullAcsRound asks a node for its view of one ACS round.
type PullAcsRound struct {
	Round uint64
}

// ACS slot statuses carried in AcsRound replies.
const (
	AcsPending uint8 = iota // membership undecided
	AcsIn                   // proposal is in the common subset
	AcsOut                  // proposal is excluded
)

// AcsSlot is one proposer's slot in an ACS round view: whether the proposal
// has been received, its value, and the slot's membership status.
type AcsSlot struct {
	Status uint8
	Held   bool
	Noop   bool
	Value  types.Value
}

// AcsRound is a node's current view of one ACS round.
type AcsRound struct {
	Round  uint64
	Closed bool
	Slots  []AcsSlot
}

// PullLog asks a node for a slice of its ordered log: up to Max entries
// starting at index Start.
type PullLog struct {
	Start uint64
	Max   int
}

// LogEntry is one committed entry of the ordered log built by concatenating
// ACS rounds: the round it was agreed in, the proposer whose slot it filled,
// and the proposed value. In-round order is ascending proposer id, so the
// whole log is deterministic given the round vectors.
type LogEntry struct {
	Round    uint64
	Proposer types.ProcessID
	Value    types.Value
}

// Log is a node's reply to PullLog: the total log length, the start index of
// the slice, and the entries.
type Log struct {
	Total   uint64
	Start   uint64
	Entries []LogEntry
}

// SweepJob asks a node to execute the half-open cell range [First,
// First+Count) of the grid sweep the axes describe, on a control connection.
// Axes are carried as compact codes — models via grid.ModelCode, validities
// as types.Validity bytes, fault plans as grid.FaultPlan bytes — and decoded
// back into a grid.Spec by internal/grid, which owns the semantic
// validation. The wire layer bounds every count and length.
type SweepJob struct {
	// Job identifies the shard for the coordinator's bookkeeping; echoed in
	// the result.
	Job uint64
	// Seed is the spec's master seed; cells derive their own seeds from it.
	Seed uint64
	// Models..Plans are the grid axes in enumeration order.
	Models     []uint8
	Validities []uint8
	Ns, Ks, Ts []int
	Plans      []uint8
	// Trials and Runs are the spec's per-point trial count and per-record
	// randomized run count.
	Trials int
	Runs   int
	// First and Count select the shard's cell range.
	First uint64
	Count int
}

// Sweep record statuses. The first three mirror theory.Status; Invalid marks
// enumerated cells outside the model (t > n).
const (
	SweepSolvable uint8 = iota + 1
	SweepImpossible
	SweepOpen
	SweepInvalid
)

// SweepRecord is one grid cell's result in wire form: the integer-coded
// mirror of grid.Record. Floats never appear — the mean distinct-decision
// count travels as fixed-point millis — so records round-trip bit-exactly
// and distributed sweeps stay byte-identical with local ones.
type SweepRecord struct {
	Cell              uint64
	Model             uint8
	Validity          uint8
	N, K, T           int
	Plan              uint8
	Trial             int
	Seed              uint64
	Status            uint8
	Lemma             string
	Protocol          string
	Runs              int
	Violations        int
	RunErrors         int
	TermOK            bool
	AgreeOK           bool
	ValidOK           bool
	Events            int64
	Messages          int64
	MaxDistinct       int
	MeanDistinctMilli int64
	DefaultDecisions  int64
	FirstViolation    string
}

// SweepResult answers a SweepJob with the shard's records in cell order. A
// result whose record count differs from the job's Count signals the node
// rejected or failed the shard; the coordinator reassigns it.
type SweepResult struct {
	Job     uint64
	First   uint64
	Records []SweepRecord
}

// Type implementations.
func (Hello) Type() MsgType        { return TypeHello }
func (Start) Type() MsgType        { return TypeStart }
func (StartAck) Type() MsgType     { return TypeStartAck }
func (PullTable) Type() MsgType    { return TypePullTable }
func (Table) Type() MsgType        { return TypeTable }
func (PullMetrics) Type() MsgType  { return TypePullMetrics }
func (Metrics) Type() MsgType      { return TypeMetrics }
func (AcsSubmit) Type() MsgType    { return TypeAcsSubmit }
func (AcsAck) Type() MsgType       { return TypeAcsAck }
func (PullAcsRound) Type() MsgType { return TypePullAcsRound }
func (AcsRound) Type() MsgType     { return TypeAcsRound }
func (PullLog) Type() MsgType      { return TypePullLog }
func (Log) Type() MsgType          { return TypeLog }
func (SweepJob) Type() MsgType     { return TypeSweepJob }
func (SweepResult) Type() MsgType  { return TypeSweepResult }
