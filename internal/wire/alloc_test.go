package wire

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// hostileList is a frame body whose last field is a count claiming limit
// elements, with no element bytes after it.
func hostileList(version uint8, t MsgType, fields []byte, limit int) []byte {
	body := append([]byte{version, uint8(t)}, fields...)
	return binary.BigEndian.AppendUint32(body, uint32(limit))
}

// allocPerCall returns the bytes f allocates per call, averaged over a few
// calls after a warm-up.
func allocPerCall(f func()) uint64 {
	const calls = 16
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}

// TestDecodeAllocBound pins the decoder's allocation bound at run time: a
// frame that claims a list at its limit but carries no element bytes is
// rejected before the list is sized. The wirebounds lint rule is name-based,
// so it cannot tell a bytes-left check from any other mention of the count;
// this test can.
func TestDecodeAllocBound(t *testing.T) {
	const maxAlloc = 4 << 10
	zeros := func(n int) []byte { return make([]byte, n) }
	// sweepAxes are the SweepJob fields before the i-th axis: job, seed and
	// the i earlier axes, all empty.
	sweepAxes := func(i int) []byte { return zeros(16 + 4*i) }
	cases := []struct {
		name string
		body []byte
	}{
		{"table rows", hostileList(Version, TypeTable, zeros(16), MaxProcs)},
		{"metric values", hostileList(Version, TypeMetrics, nil, MaxValues)},
		{"histograms", hostileList(Version, TypeMetrics, zeros(4), MaxHists)},
		{"buckets", hostileList(Version, TypeMetrics,
			append([]byte{0, 0, 0, 0, 0, 0, 0, 1}, zeros(2+32)...), MaxBuckets+1)},
		{"acs slots", hostileList(Version, TypeAcsRound, zeros(9), MaxProcs)},
		{"log entries", hostileList(Version, TypeLog, zeros(16), MaxLogEntries)},
		{"sweep models", hostileList(Version, TypeSweepJob, sweepAxes(0), MaxSweepAxis)},
		{"sweep validities", hostileList(Version, TypeSweepJob, sweepAxes(1), MaxSweepAxis)},
		{"sweep n", hostileList(Version, TypeSweepJob, sweepAxes(2), MaxSweepAxis)},
		{"sweep k", hostileList(Version, TypeSweepJob, sweepAxes(3), MaxSweepAxis)},
		{"sweep t", hostileList(Version, TypeSweepJob, sweepAxes(4), MaxSweepAxis)},
		{"sweep plans", hostileList(Version, TypeSweepJob, sweepAxes(5), MaxSweepAxis)},
		{"sweep records", hostileList(Version, TypeSweepResult, zeros(16), MaxSweepCells)},
		{"ack words", hostileList(VersionBatch, TypeBatch, nil, 2+MaxAckWords)},
		{"batch messages", hostileList(VersionBatch, TypeBatch, zeros(4), MaxBatchMsgs)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.body); err == nil {
			t.Errorf("%s: Decode accepted %x", tc.name, tc.body)
			continue
		}
		if got := allocPerCall(func() { _, _ = Decode(tc.body) }); got >= maxAlloc {
			t.Errorf("%s: rejecting the frame allocated %d bytes, want under %d", tc.name, got, maxAlloc)
		}
	}
}
