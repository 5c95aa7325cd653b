package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kset/internal/grid"
	"kset/internal/wire"
)

// ErrSweepFailed reports a distributed sweep that could not finish: every
// worker node died (or kept rejecting shards) while cells remained.
var ErrSweepFailed = errors.New("cluster: sweep failed")

// maxNodeFails is how many shard failures one node may accumulate before the
// coordinator stops assigning work to it. Two tolerates a single transient
// hiccup (a timeout while the node was briefly saturated) without letting a
// crashed node eat the queue.
const maxNodeFails = 2

// SweepOptions tunes RunSweep. The zero value is usable.
type SweepOptions struct {
	// ShardCells is the number of cells per shard; zero selects 64. Values
	// above wire.MaxSweepCells are clamped down to keep result frames
	// encodable.
	ShardCells int
	// Timeout bounds the dial and each shard round trip per node; zero
	// selects the client default (5s). This is also the straggler bound: a
	// node that sits on a shard longer than this loses it to reassignment.
	Timeout time.Duration
	// Logf, if non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
	// OnShard, if non-nil, is called after each shard's records are accepted,
	// with the number of cells delivered so far and the grid total. Calls are
	// serialized.
	OnShard func(delivered, total int)
}

// SweepStats summarizes one distributed sweep.
type SweepStats struct {
	// Shards is the number of shards the grid was split into.
	Shards int
	// Reassigns counts shard assignments that failed and were requeued.
	Reassigns int
	// NodesFailed counts worker nodes written off after repeated failures.
	NodesFailed int
}

// sweepShard is one queue entry: a half-open cell range.
type sweepShard struct {
	first uint64
	count int
}

// RunSweep executes spec across the ksetd nodes at addrs and returns the
// records of every cell in enumeration order — byte-for-byte what a local
// s.Run produces, because cells seed themselves from their coordinates and
// the merge is by cell index.
//
// The grid is cut into fixed-size shards on a work queue; one worker
// goroutine per address pulls shards, round-trips them as sweep-job frames,
// and requeues any shard whose node fails, times out, or returns the wrong
// record count. A node failing maxNodeFails shards is abandoned. The sweep
// errors only when every node has been abandoned while shards remain.
func RunSweep(addrs []string, spec *grid.Spec, opt SweepOptions) ([]grid.Record, SweepStats, error) {
	var stats SweepStats
	if len(addrs) == 0 {
		return nil, stats, fmt.Errorf("%w: no worker addresses", ErrSweepFailed)
	}
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	shardCells := opt.ShardCells
	if shardCells <= 0 {
		shardCells = 64
	}
	if shardCells > wire.MaxSweepCells {
		shardCells = wire.MaxSweepCells
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	total := spec.NumCells()
	nshards := int((total + uint64(shardCells) - 1) / uint64(shardCells))
	stats.Shards = nshards
	// The queue holds every shard at once, so a worker can requeue a failed
	// shard without blocking even when all other workers are gone.
	queue := make(chan sweepShard, nshards)
	for first := uint64(0); first < total; first += uint64(shardCells) {
		count := shardCells
		if rem := total - first; uint64(count) > rem {
			count = int(rem)
		}
		queue <- sweepShard{first: first, count: count}
	}

	records := make([]grid.Record, total)
	var (
		mu          sync.Mutex
		delivered   int
		nodesFailed int
		workersLeft = len(addrs)
		done        = make(chan struct{})
		workersDone = make(chan struct{})
		jobID       uint64
	)
	// accept merges one shard's records under the lock; the shard was popped
	// from the queue by exactly one worker, so its range cannot race another
	// accept for the same cells.
	accept := func(sh sweepShard, recs []grid.Record) {
		mu.Lock()
		copy(records[sh.first:sh.first+uint64(sh.count)], recs)
		delivered += sh.count
		fin := delivered == int(total)
		handler := opt.OnShard
		if handler != nil {
			handler(delivered, int(total))
		}
		mu.Unlock()
		if fin {
			close(done)
		}
	}
	fail := func(sh sweepShard) {
		mu.Lock()
		stats.Reassigns++
		mu.Unlock()
		queue <- sh
	}
	abandon := func(addr string) {
		mu.Lock()
		nodesFailed++
		mu.Unlock()
		logf("sweep: abandoning %s after %d failures", addr, maxNodeFails)
	}

	for _, addr := range addrs {
		go func(addr string) {
			var cli *Client
			// The last worker to exit — after the sweep finished, or after
			// every node was abandoned — signals the coordinator.
			defer func() {
				if cli != nil {
					_ = cli.Close()
				}
				mu.Lock()
				workersLeft--
				last := workersLeft == 0
				mu.Unlock()
				if last {
					close(workersDone)
				}
			}()
			fails := 0
			for {
				var sh sweepShard
				select {
				case <-done:
					return
				case sh = <-queue:
				}
				if cli == nil {
					c, err := DialNode(addr, opt.Timeout)
					if err != nil {
						logf("sweep: dial %s: %v", addr, err)
						fails++
						fail(sh)
						if fails >= maxNodeFails {
							abandon(addr)
							return
						}
						continue
					}
					cli = c
				}
				mu.Lock()
				jobID++
				id := jobID
				mu.Unlock()
				res, err := cli.SweepJob(spec.WireJob(id, sh.first, sh.count))
				if err == nil && len(res.Records) == sh.count {
					recs, cerr := grid.RecordsFromWire(res.Records)
					if cerr == nil {
						fails = 0
						accept(sh, recs)
						continue
					}
					err = cerr
				} else if err == nil {
					err = fmt.Errorf("node returned %d of %d records", len(res.Records), sh.count)
				}
				logf("sweep: %s shard [%d,+%d): %v", addr, sh.first, sh.count, err)
				fails++
				fail(sh)
				// The connection is in an unknown state after a failed round
				// trip; redial before the next shard.
				_ = cli.Close()
				cli = nil
				if fails >= maxNodeFails {
					abandon(addr)
					return
				}
			}
		}(addr)
	}

	select {
	case <-done:
		<-workersDone
	case <-workersDone:
		mu.Lock()
		d := delivered
		mu.Unlock()
		if d != int(total) {
			stats.NodesFailed = nodesFailed
			return nil, stats, fmt.Errorf("%w: all %d nodes failed with %d of %d cells delivered",
				ErrSweepFailed, len(addrs), d, total)
		}
	}
	stats.NodesFailed = nodesFailed
	return records, stats, nil
}
