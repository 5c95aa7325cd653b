package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/cluster"
	"kset/internal/grid"
)

// startCluster brings up an in-process 3-node cluster for the command to
// drive over real TCP.
func startCluster(t *testing.T, seed uint64) *cluster.Loopback {
	t.Helper()
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: 3, K: 1, T: 0, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb
}

func TestRunSingleInstance(t *testing.T) {
	lb := startCluster(t, 11)
	var out strings.Builder
	err := run([]string{
		"run",
		"-peers", strings.Join(lb.Addrs, ","),
		"-instances", "1",
		"-k", "1", "-t", "0",
		"-protocol", "floodmin",
		"-validity", "rv1",
		"-inputs", "4,7,2",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"started 1 instance(s) on 3 nodes",
		"decisions [2]", // k=1 FloodMin: consensus on the minimum input
		"cluster-wide decision latency (3/3 nodes, 3 decisions):",
		"all decision tables checker-clean (RV1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunConcurrentInstances(t *testing.T) {
	lb := startCluster(t, 12)
	var out strings.Builder
	err := run([]string{
		"run",
		"-peers", strings.Join(lb.Addrs, ","),
		"-instances", "4",
		"-protocol", "floodmin",
		"-validity", "rv1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"started 4 instance(s) on 3 nodes",
		// Every node decided every instance: the merged histogram says so.
		"cluster-wide decision latency (3/3 nodes, 12 decisions):",
		"min ", "p95 ",
		"throughput: 4 instance(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestStats(t *testing.T) {
	lb := startCluster(t, 13)
	var out strings.Builder
	err := run([]string{
		"run",
		"-peers", strings.Join(lb.Addrs, ","),
		"-instances", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"stats", "-peers", strings.Join(lb.Addrs, ",")}, &out); err != nil {
		t.Fatalf("stats: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"node 0", "node 2", "kset_frames_sent_total", "kset_instances_active",
		`kset_link_dials_total{peer="1"}`,
		"cluster-wide decision latency (3/3 nodes, 3 decisions):",
		"min ", "mean ", "p95 ", "max ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output missing %q:\n%s", want, got)
		}
	}
}

// TestStatsToleratesUnreachableNode points one peer entry at a dead address:
// the report must still aggregate the live nodes instead of failing.
func TestStatsToleratesUnreachableNode(t *testing.T) {
	lb := startCluster(t, 14)
	var out strings.Builder
	err := run([]string{
		"run",
		"-peers", strings.Join(lb.Addrs, ","),
		"-instances", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	out.Reset()
	peers := strings.Join(append(append([]string{}, lb.Addrs...), "127.0.0.1:1"), ",")
	if err := run([]string{"stats", "-peers", peers}, &out); err != nil {
		t.Fatalf("stats with dead node: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"node 3 (127.0.0.1:1): unreachable",
		"cluster-wide decision latency (3/4 nodes, 3 decisions):",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stats output missing %q:\n%s", want, got)
		}
	}
}

func TestBadUsage(t *testing.T) {
	var out strings.Builder
	cases := [][]string{
		nil,
		{"bogus"},
		{"run"}, // missing -peers
		{"run", "-peers", "x", "-instances", "0"},            // bad count
		{"run", "-peers", "a,b", "-inputs", "1"},             // wrong input arity
		{"run", "-peers", "a,b", "-validity", "nope"},        // bad validity
		{"run", "-peers", "a,b", "-protocol", "heisenbyzzz"}, // bad protocol
		{"stats"}, // missing -peers
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// TestBench drives the load generator end to end against both a caller-owned
// cluster (-peers) and its self-hosted loopback mode.
func TestBench(t *testing.T) {
	lb := startCluster(t, 15)
	var out strings.Builder
	err := run([]string{
		"bench",
		"-peers", strings.Join(lb.Addrs, ","),
		"-instances", "50",
		"-workers", "4",
	}, &out)
	if err != nil {
		t.Fatalf("bench: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"bench: 50 instances x 3 nodes, floodmin",
		"throughput:",
		"decide latency (150 samples): p50 ",
		"frames/decision",
		"acks piggybacked",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bench output missing %q:\n%s", want, got)
		}
	}
}

func TestBenchLoopback(t *testing.T) {
	jsonlPath := filepath.Join(t.TempDir(), "bench.jsonl")
	var out strings.Builder
	err := run([]string{
		"bench", "-loopback", "2", "-instances", "50", "-workers", "4",
		"-jsonl", jsonlPath,
	}, &out)
	if err != nil {
		t.Fatalf("bench -loopback: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"loopback cluster: 2 nodes",
		"bench: 50 instances x 2 nodes, floodmin",
		"decide latency (100 samples): p50 ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("bench output missing %q:\n%s", want, got)
		}
	}

	// The machine-readable record mirrors the human report and shares the
	// grid JSONL schema (kind discriminator, pinned field order).
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatalf("read bench jsonl: %v", err)
	}
	var rec grid.BenchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("unmarshal bench record: %v\n%s", err, data)
	}
	if rec.Kind != "bench" || rec.Nodes != 2 || rec.Instances != 50 || rec.Workers != 4 {
		t.Errorf("bench record header: %+v", rec)
	}
	if rec.Protocol != "floodmin" || rec.Decided != 100 {
		t.Errorf("bench record workload: %+v", rec)
	}
	if rec.ElapsedMicros <= 0 || rec.InstancesPerSec <= 0 || rec.P50Micros <= 0 {
		t.Errorf("bench record measurements not positive: %+v", rec)
	}
	if rec.Frames <= 0 || rec.FramesPerDecision <= 0 {
		t.Errorf("bench record transport deltas not positive: %+v", rec)
	}
}

func TestBenchBadUsage(t *testing.T) {
	var out strings.Builder
	cases := [][]string{
		{"bench"}, // neither -peers nor -loopback
		{"bench", "-peers", "a,b", "-loopback", "2"}, // both
		{"bench", "-loopback", "2", "-instances", "0"},
		{"bench", "-loopback", "2", "-protocol", "heisenbyzzz"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
