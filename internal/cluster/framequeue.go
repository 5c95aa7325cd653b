package cluster

// frameBlockShift sizes a frameQueue block: 1<<8 = 256 frames of 104 bytes,
// about 26 KiB, which stays under the runtime's 32 KiB large-object size.
const frameBlockShift = 8

const frameBlockLen = 1 << frameBlockShift

type frameBlock [frameBlockLen]pendingFrame

// frameQueue is a link's unacked frames in seq order, stored in fixed-size
// blocks. Growing it allocates one block and copies no frame, so a backlog to
// a peer that stays away costs one store per message however long it gets.
// Popping the head block keeps it as the spare next tail block, so a link
// whose queue drains as it fills allocates nothing. Guarded by link.mu.
type frameQueue struct {
	blocks []*frameBlock
	head   int // index of the first frame in blocks[0]
	n      int
	spare  *frameBlock
}

func (q *frameQueue) len() int { return q.n }

// at returns the i-th queued frame, 0 <= i < len.
func (q *frameQueue) at(i int) *pendingFrame {
	i += q.head
	return &q.blocks[i>>frameBlockShift][i&(frameBlockLen-1)]
}

// push appends p at the tail.
func (q *frameQueue) push(p pendingFrame) {
	i := q.head + q.n
	if i == len(q.blocks)<<frameBlockShift {
		b := q.spare
		if b == nil {
			b = new(frameBlock)
		}
		q.spare = nil
		q.blocks = append(q.blocks, b)
	}
	q.n++
	*q.at(q.n - 1) = p
}

// popFront drops the head frame, 0 < len. An emptied head block becomes the
// spare; an emptied queue restarts at the front of its one block.
func (q *frameQueue) popFront() {
	q.head++
	q.n--
	if q.n == 0 {
		q.head = 0
		return
	}
	if q.head == frameBlockLen {
		q.spare = q.blocks[0]
		last := copy(q.blocks, q.blocks[1:])
		q.blocks[last] = nil
		q.blocks = q.blocks[:last]
		q.head = 0
	}
}

// dropIf drops those of the first n frames, n <= len, that drop (called
// with each index from n-1 down to 0) reports true for, and returns their
// number. Kept frames move back over dropped ones and the head pops, so the
// cost is n however long the queue is.
func (q *frameQueue) dropIf(n int, drop func(i int, p *pendingFrame) bool) int {
	keep := n
	for i := n - 1; i >= 0; i-- {
		if p := q.at(i); !drop(i, p) {
			keep--
			*q.at(keep) = *p
		}
	}
	for i := 0; i < keep; i++ {
		q.popFront()
	}
	return keep
}
