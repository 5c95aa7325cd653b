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
// dropIf walks against a plain slice: the queue crosses block boundaries,
// drains to empty and refills on its spare block, drops single frames at the
// head, the middle and the tail of a queue several blocks long, and drops
// random subsets of random prefixes, as acks with holes do.
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
	// dropSome drops each of the first n frames for which pick(index) holds.
	dropSome := func(n int, pick func(i int) bool) {
		picked := make([]bool, n)
		var kept []uint64
		for i, seq := range oracle {
			if i < n {
				picked[i] = pick(i)
			}
			if i >= n || !picked[i] {
				kept = append(kept, seq)
			}
		}
		next := n - 1
		dropped := q.dropIf(n, func(i int, p *pendingFrame) bool {
			if i != next || p.msg.Seq != oracle[i] {
				t.Fatalf("dropIf visited index %d (seq %d), want %d (seq %d)", i, p.msg.Seq, next, oracle[next])
			}
			next--
			return picked[i]
		})
		if dropped != len(oracle)-len(kept) {
			t.Fatalf("dropIf reported %d dropped, oracle %d", dropped, len(oracle)-len(kept))
		}
		oracle = kept
	}
	remove := func(i int) {
		dropSome(i+1, func(j int) bool { return j == i })
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
			case r < 9:
				remove(rng.Intn(q.len()))
			default:
				dropSome(rng.Intn(q.len()+1), func(int) bool { return rng.Intn(3) != 0 })
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
