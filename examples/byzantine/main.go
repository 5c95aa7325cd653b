// Byzantine: run Protocol C(l) — the paper's echo-broadcast-based protocol
// for SC(k, t, SV2) in the Byzantine message-passing model (Lemma 3.15) —
// against an equivocating adversary that presents a different "input" to
// every recipient, and watch the l-echo broadcast neutralize it.
//
// Then demonstrate why validity RV1 is hopeless with Byzantine failures
// (Lemma 3.10): a single liar makes every correct process decide a value
// that is nobody's input.
//
// Run with:
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/types"
)

func main() {
	const (
		n = 8
		k = 3
		t = 1
		l = 1 // echo parameter: C(1) uses Bracha and Toueg's echo broadcast
	)

	// All correct processes agree on 4; the Byzantine process p8 tells every
	// recipient something different.
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = 4
	}
	personas := make(map[types.ProcessID]types.Value, n)
	for i := 0; i < n; i++ {
		personas[types.ProcessID(i)] = types.Value(i%3 + 10)
	}

	fmt.Printf("Protocol C(%d), n=%d k=%d t=%d, correct input 4, p8 equivocating\n\n", l, n, k, t)
	rec, err := mpnet.Run(mpnet.Config{
		N: n, T: t, K: k,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(l) },
		Byzantine: map[types.ProcessID]mpnet.Protocol{
			n - 1: adversary.NewPersonaEcho(personas, 10),
		},
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		fmt.Printf("  %v decided %d\n", types.ProcessID(i), rec.Decisions[i])
	}
	if err := checker.CheckAll(rec, types.SV2); err != nil {
		log.Fatalf("SV2 violated (reproduction bug): %v", err)
	}
	fmt.Println("\nSV2 holds: all correct processes decided their common input 4")
	fmt.Println("despite the equivocator — the echo threshold filters split claims.")

	// Part two: the Lemma 3.10 construction. FloodMin claims RV1 in the
	// crash model; one Byzantine liar destroys it.
	fmt.Println("\n--- Lemma 3.10: RV1 is impossible with Byzantine failures ---")
	cons, err := adversary.Lemma310FloodMin(n, k, t)
	if err != nil {
		log.Fatal(err)
	}
	out, err := cons.Violate(1)
	if err != nil {
		log.Fatal(err)
	}
	if out == nil {
		log.Fatal("construction unexpectedly produced no violation")
	}
	fmt.Printf("liar claims input 0 (real inputs are 1..%d):\n", n)
	fmt.Printf("  exhibited: %v\n", out.Violation)
}
