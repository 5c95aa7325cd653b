package kset_test

import (
	"fmt"

	"kset"
)

// ExampleClassify asks the solvability map about the boundary the paper
// proves for Chaudhuri's problem: RV1 is solvable exactly when t < k.
func ExampleClassify() {
	below := kset.Classify(kset.MPCR, kset.RV1, 64, 5, 4)
	at := kset.Classify(kset.MPCR, kset.RV1, 64, 5, 5)
	fmt.Println(below.Status, "via", below.Protocol, "-", below.Lemma)
	fmt.Println(at.Status, "-", at.Lemma)
	// Output:
	// solvable via FloodMin - Lemma 3.1
	// impossible - Lemma 3.2
}

// ExampleClassify_sharedMemory shows the paper's headline: with default
// decisions over shared memory, RV2 is solvable for every k >= 2 no matter
// how many processes may crash.
func ExampleClassify_sharedMemory() {
	r := kset.Classify(kset.SMCR, kset.RV2, 64, 2, 64)
	fmt.Println(r.Status, "via", r.Protocol)
	// Output:
	// solvable via Protocol E
}

// ExampleSolve runs the witness protocol for a solvable point on the
// simulated asynchronous network. With uniform inputs and RV2, every process
// must decide the common value.
func ExampleSolve() {
	rec, err := kset.Solve(kset.SolveConfig{
		Model: kset.MPCR, Validity: kset.RV2,
		N: 6, K: 2, T: 2,
		Inputs: []kset.Value{9, 9, 9, 9, 9, 9},
		Seed:   1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decisions:", rec.CorrectDecisions())
	// Output:
	// decisions: [9]
}

// ExampleSolve_impossible shows that Solve refuses points the paper proves
// impossible, citing the lemma.
func ExampleSolve_impossible() {
	_, err := kset.Solve(kset.SolveConfig{
		Model: kset.MPByz, Validity: kset.RV1,
		N: 6, K: 3, T: 1,
		Inputs: []kset.Value{1, 2, 3, 4, 5, 6},
	})
	fmt.Println(err)
	// Output:
	// kset: SC(k=3, t=1, RV1) in MP/Byz is impossible (Lemma 3.10)
}

// ExampleVerifyOneShot proves (not samples) a protocol claim at small scale:
// FloodMin satisfies SC(3, 2, RV1) at n=6 against every input pattern,
// every faulty set and every message-arrival order — and fails one step
// past Chaudhuri's t < k boundary.
func ExampleVerifyOneShot() {
	inRegion, _ := kset.VerifyOneShot(kset.ProtoFloodMin, kset.RV1, 6, 3, 2)
	atBoundary, _ := kset.VerifyOneShot(kset.ProtoFloodMin, kset.RV1, 6, 3, 3)
	fmt.Println("t=2 holds:", inRegion.Holds)
	fmt.Println("t=3 holds:", atBoundary.Holds, "-", atBoundary.Violation.Condition)
	// Output:
	// t=2 holds: true
	// t=3 holds: false - agreement
}

// ExampleSolve_crashes solves k-set consensus among 8 processes that each
// propose a different value, with up to 2 crash failures, over an
// asynchronous message-passing network: the basic SC(k, t, RV1) setting of
// the paper with Chaudhuri's protocol (Lemma 3.1, solvable because t < k).
func ExampleSolve_crashes() {
	const (
		n = 8 // processes
		k = 3 // at most 3 distinct decisions
		t = 2 // at most 2 failures
	)

	// Every process proposes its own ballot number.
	inputs := make([]kset.Value, n)
	for i := range inputs {
		inputs[i] = kset.Value(100 + i)
	}

	// Ask the library whether this point is solvable, and with what.
	c := kset.Classify(kset.MPCR, kset.RV1, n, k, t)
	fmt.Printf("SC(k=%d, t=%d, RV1) in MP/CR: %s via %s (%s)\n\n",
		k, t, c.Status, c.Protocol, c.Lemma)

	// Run the witness protocol on the simulated asynchronous network,
	// crashing two processes mid-run. The run is deterministic in the seed.
	rec, err := kset.Solve(kset.SolveConfig{
		Model: kset.MPCR, Validity: kset.RV1,
		N: n, K: k, T: t,
		Inputs: inputs,
		Crash:  []kset.ProcessID{2, 5},
		Seed:   42,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	for i := 0; i < n; i++ {
		state := "correct"
		if rec.Faulty[i] {
			state = "crashed"
		}
		if rec.Decided[i] {
			fmt.Printf("  %-3v (%-7s) proposed %d, decided %d\n",
				kset.ProcessID(i), state, rec.Inputs[i], rec.Decisions[i])
		} else {
			fmt.Printf("  %-3v (%-7s) proposed %d, never decided\n",
				kset.ProcessID(i), state, rec.Inputs[i])
		}
	}

	fmt.Printf("\ndistinct decisions by correct processes: %v (bound k=%d)\n",
		rec.CorrectDecisions(), k)
	fmt.Printf("messages: %d, delivery events: %d\n", rec.Messages, rec.Events)

	// The checker is independent of the protocols: verify all conditions.
	if err := kset.Check(rec, kset.RV1); err != nil {
		fmt.Println("condition violated:", err)
		return
	}
	fmt.Println("termination, agreement and RV1 all hold.")
	// Output:
	// SC(k=3, t=2, RV1) in MP/CR: solvable via FloodMin (Lemma 3.1)
	//
	//   p1  (correct) proposed 100, decided 100
	//   p2  (correct) proposed 101, decided 101
	//   p3  (crashed) proposed 102, never decided
	//   p4  (correct) proposed 103, decided 100
	//   p5  (correct) proposed 104, decided 101
	//   p6  (correct) proposed 105, decided 100
	//   p7  (correct) proposed 106, decided 101
	//   p8  (correct) proposed 107, decided 101
	//
	// distinct decisions by correct processes: [100 101] (bound k=3)
	// messages: 64, delivery events: 41
	// termination, agreement and RV1 all hold.
}

// ExampleValidate regenerates one panel of the paper's Figure 5 (shared
// memory, crash failures) at the paper's n = 64, prints it at half
// resolution, and validates a cell inside the solvable region empirically by
// running its witness protocol. The construction that breaks a cell outside
// it is adversary.Lemma43ProtocolF's example.
func ExampleValidate() {
	const n = 64

	// Figure 5, SV2 panel: Protocol F (k > t+1), Protocol B via SIMULATION,
	// impossibility for t >= n/2 and t >= k (Lemma 4.3).
	g, err := kset.ComputeGrid(kset.SMCR, kset.SV2, n)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("Figure 5, SV2 panel at n=%d:\n\n", n)
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

	// Inside the solvable region: validate a cell empirically.
	const k, t = 20, 10 // k > t+1: Protocol F
	fmt.Printf("\nvalidating solvable cell k=%d t=%d (%s)...\n", k, t,
		kset.Classify(kset.SMCR, kset.SV2, n, k, t).Protocol)
	sum, err := kset.Validate(kset.SMCR, kset.SV2, n, k, t, 6, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(" ", sum)
	// Output:
	// Figure 5, SV2 panel at n=64:
	//
	// t= 64 |###############################
	// t= 62 |###############################
	// t= 60 |##############################o
	// t= 58 |#############################oo
	// t= 56 |############################ooo
	// t= 54 |###########################oooo
	// t= 52 |##########################ooooo
	// t= 50 |#########################oooooo
	// t= 48 |########################ooooooo
	// t= 46 |#######################oooooooo
	// t= 44 |######################ooooooooo
	// t= 42 |#####################oooooooooo
	// t= 40 |####################ooooooooooo
	// t= 38 |###################oooooooooooo
	// t= 36 |##################ooooooooooooo
	// t= 34 |#################oooooooooooooo
	// t= 32 |################ooooooooooooooo
	// t= 30 |........ooooooooooooooooooooooo
	// t= 28 |....ooooooooooooooooooooooooooo
	// t= 26 |..ooooooooooooooooooooooooooooo
	// t= 24 |..ooooooooooooooooooooooooooooo
	// t= 22 |.oooooooooooooooooooooooooooooo
	// t= 20 |.oooooooooooooooooooooooooooooo
	// t= 18 |.oooooooooooooooooooooooooooooo
	// t= 16 |.oooooooooooooooooooooooooooooo
	// t= 14 |ooooooooooooooooooooooooooooooo
	// t= 12 |ooooooooooooooooooooooooooooooo
	// t= 10 |ooooooooooooooooooooooooooooooo
	// t=  8 |ooooooooooooooooooooooooooooooo
	// t=  6 |ooooooooooooooooooooooooooooooo
	// t=  4 |ooooooooooooooooooooooooooooooo
	// t=  2 |ooooooooooooooooooooooooooooooo
	//        k=2 ... 63 (every 2nd cell)
	//
	// validating solvable cell k=20 t=10 (Protocol F)...
	//   SM/CR/SV2 n=64 k=20 t=10 via Protocol F: 6 runs, all conditions held
}
