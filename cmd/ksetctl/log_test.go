package main

import (
	"fmt"
	"strings"
	"testing"

	"kset/internal/acs"
	"kset/internal/cluster"
	"kset/internal/types"
	"kset/internal/wire"
)

// startAcsCluster brings up a 3-node loopback cluster with the ACS engine
// attached to every node, as `ksetd -acs` would.
func startAcsCluster(t *testing.T) *cluster.Loopback {
	t.Helper()
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: 3, K: 1, T: 0, Seed: 21,
		Attach: func(node *cluster.Node) {
			if _, err := acs.New(acs.Config{Node: node}); err != nil {
				t.Errorf("attach acs: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb
}

func TestLogAppendAndTail(t *testing.T) {
	lb := startAcsCluster(t)
	peers := strings.Join(lb.Addrs, ",")
	for i, nodeArg := range []string{"0", "2", "1"} {
		value := strings.Repeat("7", i+1) // 7, 77, 777
		var out strings.Builder
		err := run([]string{
			"log", "append",
			"-peers", peers,
			"-node", nodeArg,
			"-value", value,
		}, &out)
		if err != nil {
			t.Fatalf("log append #%d: %v\noutput:\n%s", i, err, out.String())
		}
		// The round vector, checked on every node, then the entry's index.
		for _, want := range []string{
			"slot " + nodeArg + ": IN  value " + value + "\n",
			"proposals admitted",
			"vector identical on 3 nodes",
			"appended value " + value + " at log index ",
			"identical on 3 nodes\n",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("append #%d output missing %q:\n%s", i, want, out.String())
			}
		}
	}

	var out strings.Builder
	err := run([]string{
		"log", "tail",
		"-peers", peers,
		"-strict",
	}, &out)
	if err != nil {
		t.Fatalf("log tail: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"value 7\n", "value 77\n", "value 777\n",
		"consistent on 3 nodes",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("tail output missing %q:\n%s", want, got)
		}
	}

	// A windowed tail starting past the first entry must report its start.
	out.Reset()
	if err := run([]string{"log", "tail", "-peers", peers, "-start", "1", "-max", "1"}, &out); err != nil {
		t.Fatalf("windowed tail: %v", err)
	}
	if !strings.Contains(out.String(), "log[1:2) of 3 total") {
		t.Errorf("windowed tail output:\n%s", out.String())
	}
}

func TestAcsBadUsage(t *testing.T) {
	var out strings.Builder
	cases := [][]string{
		{"acs", "propose", "-peers", "a,b"}, // unknown subcommand
		{"log"},
		{"log", "bogus"},
		{"log", "append"}, // missing -peers
		{"log", "append", "-peers", "a,b", "-node", "-1"},
		{"log", "tail"}, // missing -peers
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// TestLogAppendPastOneWindow appends once the log holds more entries than
// one Log reply carries: log append must still find its entry, at the same
// index on every node.
func TestLogAppendPastOneWindow(t *testing.T) {
	engines := make([]*acs.Engine, 3)
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{
		N: 3, K: 1, T: 0, Seed: 22,
		Attach: func(node *cluster.Node) {
			e, err := acs.New(acs.Config{Node: node})
			if err != nil {
				t.Errorf("attach acs: %v", err)
			}
			engines[node.ID()] = e
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	// Rounds 1..MaxLogEntries each log node 0's value and nothing else, so
	// node 0's next value lands at index MaxLogEntries.
	for i := 0; i < wire.MaxLogEntries; i++ {
		if _, err := engines[0].Submit(types.Value(i)); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	err = run([]string{"log", "append", "-peers", strings.Join(lb.Addrs, ","), "-value", "5"}, &out)
	if err != nil {
		t.Fatalf("log append: %v\noutput:\n%s", err, out.String())
	}
	want := fmt.Sprintf("appended value 5 at log index %d (round %d, proposer 0), identical on 3 nodes", wire.MaxLogEntries, wire.MaxLogEntries+1)
	if !strings.Contains(out.String(), want) {
		t.Errorf("output missing %q:\n%s", want, out.String())
	}
}
