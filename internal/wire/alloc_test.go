package wire

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

// decodeAlloc decodes body once and returns the bytes the call allocated, or
// the value it panicked with.
func decodeAlloc(body []byte) (alloc uint64, panicked any) {
	var before, after runtime.MemStats
	defer func() { panicked = recover() }()
	runtime.ReadMemStats(&before)
	_, _ = Decode(body)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, nil
}

// TestDecodeAllocBound pins the decoder's allocation and truncation bounds
// at run time, over every count field of every frame without naming one. In
// each sample frame, each 4-byte window is patched to each list limit and to
// 0xFFFFFFFF, and the frame is cut right after it: a window that lands on a
// count claims that many elements with no element bytes behind it. Decoding
// must not panic, and, accepted or not, must allocate at most 4 KiB plus 16
// bytes per frame byte. A count added to any walk is reached the same way
// once a sample frame carries it, so a new list needs no edit here.
func TestDecodeAllocBound(t *testing.T) {
	limits := []uint32{
		MaxProcs, MaxValues, MaxHists, MaxBuckets + 1, MaxLogEntries,
		MaxSweepAxis, MaxSweepCells, 2 + MaxAckWords, MaxBatchMsgs, math.MaxUint32,
	}
	slices.Sort(limits)
	limits = slices.Compact(limits)
	cases := 0
	for _, m := range sampleMsgs() {
		frame := mustEncode(t, m)
		// The full ack state is 8 KiB of bit words behind the one count an
		// empty batch already carries.
		if len(frame) > 1<<10 {
			continue
		}
		for off := 0; off+4 <= len(frame); off++ {
			for _, v := range limits {
				body := binary.BigEndian.AppendUint32(slices.Clip(frame[:off]), v)
				bound := uint64(4<<10 + 16*len(body))
				// A background allocation can land in one reading, notably
				// under -race: only a reading over the bound is taken again,
				// and the least of three counts.
				least := uint64(math.MaxUint64)
				for try := 0; try < 3 && least > bound; try++ {
					alloc, panicked := decodeAlloc(body)
					if panicked != nil {
						t.Fatalf("%T, count %#x at offset %d: Decode panicked: %v", m, v, off, panicked)
					}
					least = min(least, alloc)
				}
				if least > bound {
					t.Errorf("%T, count %#x at offset %d: Decode of %d bytes allocated %d, want at most %d",
						m, v, off, len(body), least, bound)
				}
				cases++
			}
		}
	}
	t.Logf("%d patched frames", cases)
}
