package main

import (
	"strings"
	"testing"

	"kset/internal/cluster"
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
	// The id-range cases name a live cluster, so only the range check can
	// refuse them.
	live := strings.Join(startCluster(t, 15).Addrs, ",")
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

		// An id range that wraps, and one that reaches the ACS vote namespace.
		{"run", "-peers", live, "-first", "18446744073709551615", "-instances", "2"},
		{"run", "-peers", live, "-first", "9223372036854775807", "-instances", "2"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
