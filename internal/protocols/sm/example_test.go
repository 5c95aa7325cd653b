package sm_test

import (
	"fmt"

	"kset/internal/checker"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/types"
)

// ExampleNewProtocolE shows the headline result of the paper's
// shared-memory section: Protocol E solves SC(k, t, RV2) for every k >= 2
// and any number of crash failures (Lemma 4.5), where the message-passing
// model needs t < (k-1)n/k. Here t = n-1, an extreme no message-passing
// protocol could survive; everyone proposes 9 and three processes crash
// mid-run.
func ExampleNewProtocolE() {
	const n = 6
	fmt.Println("Protocol E, n=6 k=2 t=5 (any t!), uniform input 9, 3 crashes")
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = 9
	}
	rec, err := smmem.Run(smmem.Config{
		N: n, T: n - 1, K: 2,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
		Crash: types.ScriptedCrashes{
			{Proc: 1, Kind: types.CrashAtOp, Index: 0}, // before its first step
			{Proc: 3, Kind: types.CrashAtOp, Index: 2}, // between write and scan
			{Proc: 5, Kind: types.CrashAtOp, Index: 4}, // mid-scan
		},
		Seed: 5,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecisions(rec)
	if err := checker.CheckAll(rec, types.RV2); err != nil {
		fmt.Println("RV2 violated:", err)
		return
	}
	fmt.Println("RV2 holds: every surviving process decided the common input 9.")
	// Output:
	// Protocol E, n=6 k=2 t=5 (any t!), uniform input 9, 3 crashes
	//   p1 decided 9
	//   p2 faulty, no decision
	//   p3 decided 9
	//   p4 faulty, no decision
	//   p5 decided 9
	//   p6 faulty, no decision
	// RV2 holds: every surviving process decided the common input 9.
}

// ExampleNewProtocolF shows Protocol F upholding SC(k, t, SV2) for k > t+1
// (Lemma 4.7), even with mixed inputs.
func ExampleNewProtocolF() {
	fmt.Println("Protocol F, n=6 k=4 t=2, mixed inputs")
	rec, err := smmem.Run(smmem.Config{
		N: 6, T: 2, K: 4,
		Inputs:      []types.Value{1, 1, 2, 2, 3, 3},
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolF() },
		Seed:        11,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecisions(rec)
	if err := checker.CheckAll(rec, types.SV2); err != nil {
		fmt.Println("SV2 violated:", err)
		return
	}
	fmt.Printf("agreement holds: %d distinct decisions <= k=4\n", len(rec.CorrectDecisions()))
	// Output:
	// Protocol F, n=6 k=4 t=2, mixed inputs
	//   p1 decided v0 (default)
	//   p2 decided v0 (default)
	//   p3 decided v0 (default)
	//   p4 decided v0 (default)
	//   p5 decided v0 (default)
	//   p6 decided v0 (default)
	// agreement holds: 1 distinct decisions <= k=4
}

// printDecisions prints each process's decision, v0 by name, or that it
// is faulty.
func printDecisions(rec *types.RunRecord) {
	for i := 0; i < rec.N; i++ {
		switch {
		case rec.Faulty[i] && !rec.Decided[i]:
			fmt.Printf("  %v faulty, no decision\n", types.ProcessID(i))
		case rec.Faulty[i]:
			fmt.Printf("  %v faulty, decided %d\n", types.ProcessID(i), rec.Decisions[i])
		case rec.Decisions[i] == types.DefaultValue:
			fmt.Printf("  %v decided v0 (default)\n", types.ProcessID(i))
		default:
			fmt.Printf("  %v decided %d\n", types.ProcessID(i), rec.Decisions[i])
		}
	}
}
