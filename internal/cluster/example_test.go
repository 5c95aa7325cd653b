package cluster_test

import (
	"fmt"

	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// ExampleStartLoopback runs the simulator's protocol code on a loopback TCP
// cluster instead: n in-process nodes, each a full Node with real TCP links
// to the others on 127.0.0.1. The kernel's network stack and the Go
// scheduler become part of the adversary, three nodes are crashed before
// the start, and the checker must still pass. Every live node waits for
// n-t = 9 inputs, all nine live ones, so each decides their minimum, 1.
func ExampleStartLoopback() {
	const (
		n = 12
		k = 4
		t = 3
	)
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(i%5 + 1)
	}

	fmt.Printf("loopback cluster: %d nodes over TCP, FloodMin, nodes 0, 4 and 9 crashed before the start\n", n)
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: n, K: k, T: t, Seed: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer lb.Close()
	for _, i := range []int{0, 4, 9} {
		lb.Crash(i)
	}
	rec, err := lb.RunInstance(wire.Start{Instance: 1, K: k, T: t, Proto: uint8(theory.ProtoFloodMin)}, inputs)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("decisions: %v (k=%d)\n", rec.CorrectDecisions(), k)
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		fmt.Println("violation on the loopback cluster:", err)
		return
	}
	fmt.Println("RV1, agreement and termination hold under real concurrency.")
	// Output:
	// loopback cluster: 12 nodes over TCP, FloodMin, nodes 0, 4 and 9 crashed before the start
	// decisions: [1] (k=4)
	// RV1, agreement and termination hold under real concurrency.
}
