// Livecluster: run the same protocol code on a loopback TCP cluster — n
// in-process nodes, each a full ksetd node with real TCP links to the
// others on 127.0.0.1 — instead of the deterministic simulator. This is the
// "does it survive real concurrency" demonstration: the kernel's network
// stack and the Go scheduler become part of the adversary, three nodes are
// killed before the start, and the checker must still pass.
//
// Run with:
//
//	go run ./examples/livecluster
//	go run -race ./examples/livecluster   # with the race detector as referee
package main

import (
	"fmt"
	"log"
	"time"

	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

func main() {
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
	start := time.Now()
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: n, K: k, T: t, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer lb.Close()
	for _, i := range []int{0, 4, 9} {
		lb.Crash(i)
	}
	rec, err := lb.RunInstance(wire.Start{Instance: 1, K: k, T: t, Proto: uint8(theory.ProtoFloodMin)}, inputs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run completed in %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("decisions: %v (k=%d)\n", rec.CorrectDecisions(), k)
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		log.Fatalf("violation on the loopback cluster: %v", err)
	}
	fmt.Println("RV1, agreement and termination hold under real concurrency.")
}
