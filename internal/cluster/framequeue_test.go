package cluster

import (
	"testing"

	"kset/internal/prng"
	"kset/internal/wire"
)

// checkQueue compares q frame by frame with the slice oracle.
func checkQueue(t *testing.T, step int, q *frameQueue, oracle []uint64) {
	t.Helper()
	if q.len() != len(oracle) {
		t.Fatalf("step %d: len %d, oracle %d", step, q.len(), len(oracle))
	}
	for i, seq := range oracle {
		if got := q.at(i).msg.Seq; got != seq {
			t.Fatalf("step %d: frame %d has seq %d, oracle %d", step, i, got, seq)
		}
	}
}

// TestFrameQueue runs a seeded random sequence of pushes, head pops and
// removals at any index against a plain slice: the queue crosses block
// boundaries, drains to empty and refills on its spare block, and removes at
// the head, the middle and the tail of a queue several blocks long.
func TestFrameQueue(t *testing.T) {
	var q frameQueue
	var oracle []uint64
	rng := prng.New(26)
	next := uint64(0)
	push := func(n int) {
		for ; n > 0; n-- {
			next++
			q.push(pendingFrame{msg: wire.BatchMsg{Seq: next}})
			oracle = append(oracle, next)
		}
	}
	remove := func(i int) {
		q.remove(i)
		oracle = append(oracle[:i], oracle[i+1:]...)
	}
	step := 0
	for cycle := 0; cycle < 4; cycle++ {
		// Grow to several blocks with pops and removals mixed in.
		for q.len() < 5*frameBlockLen {
			step++
			switch r := rng.Intn(10); {
			case r < 6:
				push(1 + rng.Intn(2*frameBlockLen))
			case q.len() == 0:
			case r < 8:
				q.popFront()
				oracle = oracle[1:]
			default:
				remove(rng.Intn(q.len()))
			}
			checkQueue(t, step, &q, oracle)
		}
		// Remove at the head, around a block boundary in the middle, and at
		// the tail.
		for _, at := range []func() int{
			func() int { return 0 },
			func() int { return frameBlockLen - q.head - 1 },
			func() int { return frameBlockLen - q.head },
			func() int { return q.len() / 2 },
			func() int { return q.len() - 1 },
		} {
			step++
			remove(at())
			checkQueue(t, step, &q, oracle)
		}
		// Drain to empty; the next cycle refills from the kept blocks.
		for q.len() > 0 {
			step++
			if rng.Intn(4) == 0 {
				remove(rng.Intn(q.len()))
			} else {
				q.popFront()
				oracle = oracle[1:]
			}
			checkQueue(t, step, &q, oracle)
		}
		if q.spare == nil || len(q.blocks) != 1 {
			t.Fatalf("cycle %d: drained queue keeps %d blocks and spare %v, want 1 and a spare",
				cycle, len(q.blocks), q.spare != nil)
		}
	}

	// A link whose queue drains as it fills allocates nothing, across block
	// boundaries included.
	push(frameBlockLen / 2)
	allocs := testing.AllocsPerRun(10*frameBlockLen, func() {
		q.push(pendingFrame{})
		q.popFront()
	})
	if allocs != 0 {
		t.Errorf("steady push/pop allocates %.2f times per frame, want 0", allocs)
	}
}
