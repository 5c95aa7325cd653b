// Regions: regenerate one panel of the paper's Figure 5 (shared memory,
// crash failures) at the paper's n = 64, print it, and then empirically
// spot-check cells on both sides of the boundary: run the witness protocol
// inside the solvable region and the scripted counterexample outside it.
//
// Run with:
//
//	go run ./examples/regions
package main

import (
	"fmt"
	"log"

	"kset"
	"kset/internal/adversary"
)

func main() {
	const n = 64

	// Figure 5, SV2 panel: Protocol F (k > t+1), Protocol B via SIMULATION,
	// impossibility for t >= n/2 and t >= k (Lemma 4.3).
	grid := kset.ComputeGrid(kset.SMCR, kset.SV2, n)
	fmt.Printf("Figure 5, SV2 panel at n=%d:\n\n", n)
	printCompact(grid)

	// Inside the solvable region: validate a cell empirically.
	const k, t = 20, 10 // k > t+1: Protocol F
	fmt.Printf("\nvalidating solvable cell k=%d t=%d (%s)...\n", k, t,
		kset.Classify(kset.SMCR, kset.SV2, n, k, t).Protocol)
	sum, err := kset.Validate(kset.SMCR, kset.SV2, n, k, t, 6, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(" ", sum)
	if !sum.OK() {
		log.Fatal("validation failed")
	}

	// Outside: the Lemma 4.3 construction exhibits an agreement violation.
	const ik, it = 2, 33 // t >= n/2 and t >= k: impossible
	fmt.Printf("\nexhibiting impossibility at k=%d t=%d (%s)...\n", ik, it,
		kset.Classify(kset.SMCR, kset.SV2, n, ik, it).Lemma)
	cons, err := adversary.Lemma43ProtocolF(n, ik, it)
	if err != nil {
		log.Fatal(err)
	}
	out, err := cons.Violate(4)
	if err != nil {
		log.Fatal(err)
	}
	if out == nil {
		log.Fatal("construction produced no violation")
	}
	fmt.Printf("  %v\n", out.Violation)
}

// printCompact renders the panel at half resolution so it fits a terminal.
func printCompact(g *kset.Grid) {
	for t := g.TMax(); t >= g.TMin(); t -= 2 {
		fmt.Printf("t=%3d |", t)
		for k := g.KMin(); k <= g.KMax(); k += 2 {
			switch g.At(k, t).Status {
			case kset.Solvable:
				fmt.Print("o")
			case kset.Impossible:
				fmt.Print("#")
			default:
				fmt.Print(".")
			}
		}
		fmt.Println()
	}
	fmt.Println("       k=2 ... 63 (every 2nd cell)")
}
