package cluster

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/grid"
	"kset/internal/types"
	"kset/internal/wire"
)

// sweepTestSpec is a small grid covering solvable, impossible and invalid
// cells — 48 cells total, cheap enough to run in full several times.
func sweepTestSpec(t *testing.T) *grid.Spec {
	t.Helper()
	s := &grid.Spec{
		Models:     []types.Model{types.MPCR},
		Validities: []types.Validity{types.RV1, types.RV2},
		Ns:         []int{4, 5},
		Ks:         []int{2},
		Ts:         []int{1, 2, 6},
		Plans:      []grid.FaultPlan{grid.FaultFull, grid.FaultNone},
		Trials:     2,
		Runs:       4,
		Seed:       11,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s
}

func sweepTestCluster(t *testing.T, n int) *Loopback {
	t.Helper()
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 5})
	if err != nil {
		t.Fatalf("StartLoopback: %v", err)
	}
	t.Cleanup(lb.Close)
	return lb
}

// renderBoth produces the CSV and JSONL bytes for a record slice.
func renderBoth(t *testing.T, recs []grid.Record) (string, string) {
	t.Helper()
	var csvBuf, jsonlBuf bytes.Buffer
	if err := grid.WriteCSV(&csvBuf, recs); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := grid.WriteJSONL(&jsonlBuf, recs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return csvBuf.String(), jsonlBuf.String()
}

// TestRunSweepMatchesLocal is the tentpole's golden contract: a sweep sharded
// across live nodes renders byte-identically to the same spec run in-process,
// whether the grid travels as one shard or as many unaligned ones.
func TestRunSweepMatchesLocal(t *testing.T) {
	spec := sweepTestSpec(t)
	localCSV, localJSONL := renderBoth(t, spec.Run(nil))
	lb := sweepTestCluster(t, 3)

	for _, shard := range []int{int(spec.NumCells()), 7} {
		recs, stats, err := RunSweep(lb.Addrs, spec, SweepOptions{
			ShardCells: shard, Timeout: 30 * time.Second, Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("RunSweep(shard=%d): %v", shard, err)
		}
		wantShards := (int(spec.NumCells()) + shard - 1) / shard
		if stats.Shards != wantShards {
			t.Errorf("shard=%d: %d shards, want %d", shard, stats.Shards, wantShards)
		}
		gotCSV, gotJSONL := renderBoth(t, recs)
		if gotCSV != localCSV {
			t.Errorf("shard=%d: distributed CSV differs from local", shard)
		}
		if gotJSONL != localJSONL {
			t.Errorf("shard=%d: distributed JSONL differs from local", shard)
		}
	}
}

// TestRunSweepReassignsOnCrash kills nodes before and during the sweep: the
// dead nodes' shards must be reassigned to survivors and the merged output
// must still match the local run exactly.
func TestRunSweepReassignsOnCrash(t *testing.T) {
	spec := sweepTestSpec(t)
	localCSV, localJSONL := renderBoth(t, spec.Run(nil))
	lb := sweepTestCluster(t, 3)

	// Node 2 is dead before the sweep starts: its worker's dials fail and its
	// queue pulls are requeued. The live workers could finish the grid before
	// that worker is scheduled at all, so no delivery is accepted until it has
	// failed a dial — which it logs before it needs the coordinator's lock
	// OnShard runs under. Whether it goes on to fail maxNodeFails of them and
	// is written off before the survivors finish is up to the scheduler;
	// TestRunSweepAllNodesDead pins NodesFailed.
	dead := lb.Addrs[2]
	lb.Crash(2)
	deadDialed := make(chan struct{})
	var dialedOnce, crashMid sync.Once
	recs, stats, err := RunSweep(lb.Addrs, spec, SweepOptions{
		ShardCells: 1, // one cell per shard: plenty of reassignment targets
		Timeout:    30 * time.Second,
		Logf: func(format string, args ...any) {
			t.Logf(format, args...)
			if strings.HasPrefix(format, "sweep: dial") && args[0] == dead {
				dialedOnce.Do(func() { close(deadDialed) })
			}
		},
		OnShard: func(delivered, total int) {
			select {
			case <-deadDialed:
			case <-time.After(10 * time.Second):
				t.Errorf("delivery %d: node 2's worker has not failed a dial yet", delivered)
			}
			if delivered >= 3 {
				// Mid-sweep crash: node 1 dies while shards remain.
				crashMid.Do(func() { lb.Crash(1) })
			}
		},
	})
	if err != nil {
		t.Fatalf("RunSweep with crashed nodes: %v", err)
	}
	if stats.Reassigns == 0 {
		t.Error("no shard reassignments recorded despite a pre-crashed node")
	}
	gotCSV, gotJSONL := renderBoth(t, recs)
	if gotCSV != localCSV {
		t.Error("post-crash CSV differs from local run")
	}
	if gotJSONL != localJSONL {
		t.Error("post-crash JSONL differs from local run")
	}
}

// TestRunSweepAllNodesDead verifies the sweep fails loudly, not silently,
// when no worker can take shards: it ends only once every node's worker has
// been written off.
func TestRunSweepAllNodesDead(t *testing.T) {
	spec := sweepTestSpec(t)
	lb := sweepTestCluster(t, 2)
	lb.Close()
	_, stats, err := RunSweep(lb.Addrs, spec, SweepOptions{Timeout: 2 * time.Second, Logf: t.Logf})
	if !errors.Is(err, ErrSweepFailed) {
		t.Fatalf("RunSweep against dead cluster: %v, want ErrSweepFailed", err)
	}
	if stats.NodesFailed != 2 || stats.Reassigns != 2*maxNodeFails {
		t.Errorf("NodesFailed = %d, Reassigns = %d, want both nodes written off after %d failures each",
			stats.NodesFailed, stats.Reassigns, maxNodeFails)
	}
}

// TestServeSweepJobRejects verifies the node-side service answers malformed
// or out-of-range jobs with an empty record list — the coordinator's
// reassignment signal — rather than dying or lying.
func TestServeSweepJobRejects(t *testing.T) {
	spec := sweepTestSpec(t)
	lb := sweepTestCluster(t, 1)
	cli, err := DialNode(lb.Addrs[0], 5*time.Second)
	if err != nil {
		t.Fatalf("DialNode: %v", err)
	}
	defer cli.Close()

	good := spec.WireJob(1, 0, 3)
	res, err := cli.SweepJob(good)
	if err != nil {
		t.Fatalf("SweepJob: %v", err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("good job returned %d records, want 3", len(res.Records))
	}
	recs, err := grid.RecordsFromWire(res.Records)
	if err != nil {
		t.Fatalf("RecordsFromWire: %v", err)
	}
	want := spec.RunRange(0, 3, nil)
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, recs[i], want[i])
		}
	}

	for name, mutate := range map[string]func(*wire.SweepJob){
		"bad model code": func(j *wire.SweepJob) { j.Models = []uint8{9} },
		"zero count":     func(j *wire.SweepJob) { j.Count = 0 },
		"past the end":   func(j *wire.SweepJob) { j.First = spec.NumCells() },
		"overlong range": func(j *wire.SweepJob) { j.Count = int(spec.NumCells()) + 1 },
	} {
		j := good
		mutate(&j)
		res, err := cli.SweepJob(j)
		if err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		if len(res.Records) != 0 {
			t.Errorf("%s: node returned %d records, want rejection", name, len(res.Records))
		}
	}
}
