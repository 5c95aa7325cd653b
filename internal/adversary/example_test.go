package adversary_test

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
)

// ExampleNewPersonaEcho runs Protocol C(l), the paper's echo-broadcast
// protocol for SC(k, t, SV2) in the Byzantine message-passing model
// (Lemma 3.15), against an equivocator that presents a different "input" to
// every recipient, and watches the l-echo broadcast neutralize it.
func ExampleNewPersonaEcho() {
	const (
		n = 8
		k = 3
		t = 1
		l = 1 // echo parameter: C(1) uses Bracha and Toueg's echo broadcast
	)

	// All correct processes agree on 4; the Byzantine process p8 tells every
	// recipient something different.
	inputs := make([]types.Value, n)
	personas := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = 4
		personas[i] = types.Value(i%3 + 10)
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
		fmt.Println("error:", err)
		return
	}
	for i := 0; i < n-1; i++ {
		fmt.Printf("  %v decided %d\n", types.ProcessID(i), rec.Decisions[i])
	}
	if err := checker.CheckAll(rec, types.SV2); err != nil {
		fmt.Println("SV2 violated:", err)
		return
	}
	fmt.Println("\nSV2 holds: all correct processes decided their common input 4")
	fmt.Println("despite the equivocator — the echo threshold filters split claims.")
	// Output:
	// Protocol C(1), n=8 k=3 t=1, correct input 4, p8 equivocating
	//
	//   p1 decided 4
	//   p2 decided 4
	//   p3 decided 4
	//   p4 decided 4
	//   p5 decided 4
	//   p6 decided 4
	//   p7 decided 4
	//
	// SV2 holds: all correct processes decided their common input 4
	// despite the equivocator — the echo threshold filters split claims.
}

// ExampleLemma310FloodMin shows why validity RV1 is hopeless with Byzantine
// failures (Lemma 3.10): FloodMin claims RV1 in the crash model, and a
// single liar makes every correct process decide a value that is nobody's
// input.
func ExampleLemma310FloodMin() {
	const n, k, t = 8, 3, 1
	fmt.Println("--- Lemma 3.10: RV1 is impossible with Byzantine failures ---")
	cons, err := adversary.Lemma310FloodMin(n, k, t)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := cons.Violate(1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if out == nil {
		fmt.Println("construction unexpectedly produced no violation")
		return
	}
	fmt.Printf("liar claims input 0 (real inputs are 1..%d):\n", n)
	fmt.Printf("  exhibited: %v\n", out.Violation)
	// Output:
	// --- Lemma 3.10: RV1 is impossible with Byzantine failures ---
	// liar claims input 0 (real inputs are 1..8):
	//   exhibited: checker: RV1 violated: correct p1 decided 0, not an input of any process (run[MP/Byz n=8 t=1 k=3 f=1 seed=1 events=55] decisions=[0])
}

// ExampleLemma43ProtocolF exhibits an agreement violation outside the
// solvable region of Figure 5's SV2 panel at the paper's n = 64: at
// t >= n/2 and t >= k, Lemma 4.3's run breaks Protocol F.
func ExampleLemma43ProtocolF() {
	const n = 64
	const k, t = 2, 33 // t >= n/2 and t >= k: impossible
	fmt.Printf("exhibiting impossibility at k=%d t=%d (%s)...\n", k, t,
		theory.Classify(types.SMCR, types.SV2, n, k, t).Lemma)
	cons, err := adversary.Lemma43ProtocolF(n, k, t)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	out, err := cons.Violate(4)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if out == nil {
		fmt.Println("construction produced no violation")
		return
	}
	fmt.Printf("  %v\n", out.Violation)
	// Output:
	// exhibiting impossibility at k=2 t=33 (Lemma 4.3)...
	//   checker: agreement violated: correct processes decided 35 distinct values [-4611686018427387904 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34], bound k=2 (run[SM/CR n=64 t=33 k=2 f=0 seed=1 events=4160] decisions=[-4611686018427387904 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34])
}

// ExampleNewGarbageWriter shows a Byzantine garbage writer failing to break
// Protocol E's WV2 (Lemma 4.10). It spams its own registers, but
// single-writer enforcement keeps it off everyone else's, and the WV2 claim
// only concerns failure-free runs: it stays intact in a run where the
// garbage writer is the only faulty process.
func ExampleNewGarbageWriter() {
	const n = 6
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = 9
	}
	fmt.Println("Protocol E vs Byzantine garbage writer, n=6 k=2 t=1")
	rec, err := smmem.Run(smmem.Config{
		N: n, T: 1, K: 2,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
		Byzantine: map[types.ProcessID]smmem.Protocol{
			2: adversary.NewGarbageWriter(32),
		},
		Seed: 17,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i := 0; i < n; i++ {
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
	if err := checker.CheckAll(rec, types.WV2); err != nil {
		fmt.Println("WV2 violated:", err)
		return
	}
	fmt.Println("termination, agreement and WV2 hold: decisions stay within")
	fmt.Println("{common value, default} no matter what the faulty process writes.")
	// Output:
	// Protocol E vs Byzantine garbage writer, n=6 k=2 t=1
	//   p1 decided v0 (default)
	//   p2 decided v0 (default)
	//   p3 faulty, no decision
	//   p4 decided v0 (default)
	//   p5 decided v0 (default)
	//   p6 decided v0 (default)
	// termination, agreement and WV2 hold: decisions stay within
	// {common value, default} no matter what the faulty process writes.
}
