// Benchmarks regenerating the paper's evaluation artifacts and measuring the
// reproduction itself. The paper's "results" are Figures 1-6 (a lattice and
// four region charts) rather than performance tables, so the benches come in
// three groups:
//
//   - BenchmarkFig*: regenerate each figure's data (the classification
//     grids), one bench per figure, at the paper's n = 64.
//   - BenchmarkProtocol*/BenchmarkRun*: cost of executing each of the
//     paper's protocols on the simulated systems across n, with
//     messages/events reported per run.
//   - Ablations: SIMULATION overhead (MP protocol direct vs through shared
//     memory), echo parameter l, scheduler choice.
//
// Run with: go test -bench=. -benchmem
package kset_test

import (
	"fmt"
	"io"
	"testing"

	"kset"
	"kset/internal/harness"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/report"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
)

// --- Figure regeneration benches (one per paper figure) ---

func BenchmarkFig1Lattice(b *testing.B) {
	vs := types.AllValidities()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range vs {
			for _, d := range vs {
				_ = theory.WeakerOrEqual(c, d)
			}
		}
	}
}

func benchFigure(b *testing.B, m types.Model, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		grids := theory.ComputeFigure(m, n)
		if len(grids) != 6 {
			b.Fatal("expected six panels")
		}
	}
}

func BenchmarkFig2RegionsMPCR(b *testing.B)  { benchFigure(b, types.MPCR, 64) }
func BenchmarkFig4RegionsMPByz(b *testing.B) { benchFigure(b, types.MPByz, 64) }
func BenchmarkFig5RegionsSMCR(b *testing.B)  { benchFigure(b, types.SMCR, 64) }
func BenchmarkFig6RegionsSMByz(b *testing.B) { benchFigure(b, types.SMByz, 64) }

// --- Protocol execution benches ---

func distinct(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(i + 1)
	}
	return out
}

// benchMP makes its runs the way a sweep cell does, one after another on one
// mpnet.Runner, so ns/run and allocs/run are those of a run on a warmed arena
// (the first iteration, which builds it, is amortized over b.N).
func benchMP(b *testing.B, n, k, t int, factory func(types.ProcessID) mpnet.Protocol) {
	inputs := distinct(n)
	b.ReportAllocs()
	var events, messages int64
	var runner mpnet.Runner
	for i := 0; i < b.N; i++ {
		rec, err := runner.Run(mpnet.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: factory,
			Seed:        uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		events += int64(rec.Events)
		messages += int64(rec.Messages)
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
	b.ReportMetric(float64(messages)/float64(b.N), "msgs/run")
}

func BenchmarkRunFloodMin(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMP(b, n, n/2, n/2-1, func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() })
		})
	}
}

func BenchmarkRunProtocolA(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMP(b, n, 2, n/3, func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() })
		})
	}
}

func BenchmarkRunProtocolB(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMP(b, n, 4, n/8, func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolB() })
		})
	}
}

func BenchmarkRunProtocolC(b *testing.B) {
	// The l-echo broadcast costs O(n^3) messages; bench to n=48.
	for _, n := range []int{12, 24, 48} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchMP(b, n, 3, n/8, func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) })
		})
	}
}

func BenchmarkRunProtocolD(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 4
			k := theory.Z(n, t)
			if k > n-1 {
				b.Skip("Z(n,t) out of range")
			}
			benchMP(b, n, k, t, func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolD() })
		})
	}
}

// echoBenchAPI is the little of mpnet.API the l-echo bookkeeping reads.
type echoBenchAPI struct {
	mpnet.API
	n, t int
}

func (a *echoBenchAPI) N() int                  { return a.n }
func (a *echoBenchAPI) T() int                  { return a.t }
func (a *echoBenchAPI) Broadcast(types.Payload) {}

// BenchmarkEchoHandle is the l-echo bookkeeping on its own: one process's
// EchoBroadcast, built and then fed the echoes of a fault-free run — every
// process echoes every origin's value once, sender by sender, n*n Handle
// calls that end in n acceptances. ns/echo = wall / Handle calls.
func BenchmarkEchoHandle(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			api := &echoBenchAPI{n: n, t: (n - 1) / 3}
			accepted := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := mp.NewEchoBroadcast(1, func(types.ProcessID, types.Value) { accepted++ })
				for from := 0; from < n; from++ {
					for origin := 0; origin < n; origin++ {
						e.Handle(api, types.ProcessID(from), types.Payload{
							Kind: types.KindEcho, Value: types.Value(origin + 1), Origin: types.ProcessID(origin),
						})
					}
				}
			}
			if accepted != n*b.N {
				b.Fatalf("%d acceptances in %d rounds of n=%d", accepted, b.N, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n), "ns/echo")
		})
	}
}

func benchSM(b *testing.B, n, k, t int, factory func(types.ProcessID) smmem.Protocol) {
	inputs := distinct(n)
	b.ReportAllocs()
	var ops int64
	for i := 0; i < b.N; i++ {
		rec, err := smmem.Run(smmem.Config{
			N: n, T: t, K: k,
			Inputs:      inputs,
			NewProtocol: factory,
			Seed:        uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ops += int64(rec.Events)
	}
	b.ReportMetric(float64(ops)/float64(b.N), "regops/run")
}

func BenchmarkRunProtocolE(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSM(b, n, 2, n-1, func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() })
		})
	}
}

func BenchmarkRunProtocolF(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			t := n / 4
			benchSM(b, n, t+2, t, func(types.ProcessID) smmem.Protocol { return sm.NewProtocolF() })
		})
	}
}

// --- Ablation: the SIMULATION transformation's cost ---

// BenchmarkAblationSimulation compares FloodMin run natively on the
// message-passing simulator against the same protocol carried to shared
// memory by SIMULATION: the ratio is the price of the paper's Section 4
// transformation (register polling instead of delivery events).
func BenchmarkAblationSimulation(b *testing.B) {
	const n, k, t = 12, 6, 5
	b.Run("direct-mp", func(b *testing.B) {
		benchMP(b, n, k, t, func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() })
	})
	b.Run("via-simulation-sm", func(b *testing.B) {
		benchSM(b, n, k, t, func(types.ProcessID) smmem.Protocol {
			return sm.NewSimulation(mp.NewFloodMin())
		})
	})
}

// BenchmarkAblationEchoEll varies the echo parameter l of Protocol C at a
// point where several values of l are feasible, showing the cost growth that
// motivates BestEchoEll picking the smallest feasible l.
func BenchmarkAblationEchoEll(b *testing.B) {
	const n, k, t = 16, 5, 2
	for _, l := range []int{1, 2, 3} {
		l := l
		if !theory.ProtocolCRegion(n, k, t, l) {
			continue
		}
		b.Run(fmt.Sprintf("l=%d", l), func(b *testing.B) {
			benchMP(b, n, k, t, func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(l) })
		})
	}
}

// BenchmarkAblationScheduler compares the delivery policies on the same
// FloodMin workload across n: the scheduler is the simulator's hot loop, and
// ns/event is what one pick plus one delivery costs under each policy. The
// partition gate is drawn per run the way harness.MPSweep plans it (a random
// split into 2-4 groups); group-gate is the fixed half/half isolation.
func BenchmarkAblationScheduler(b *testing.B) {
	scheds := []struct {
		name string
		mk   func(n int, rng *prng.Source) mpnet.Scheduler
	}{
		{"fair-random", func(int, *prng.Source) mpnet.Scheduler { return mpnet.FairRandom{} }},
		{"fifo", func(int, *prng.Source) mpnet.Scheduler { return mpnet.FIFO{} }},
		{"lifo", func(int, *prng.Source) mpnet.Scheduler { return mpnet.LIFO{} }},
		{"channel-fifo", func(int, *prng.Source) mpnet.Scheduler { return mpnet.ChannelFIFO{} }},
		{"group-gate", func(n int, _ *prng.Source) mpnet.Scheduler {
			half := make([]types.ProcessID, n/2)
			for i := range half {
				half[i] = types.ProcessID(i)
			}
			return mpnet.Isolate(n, half)
		}},
		{"partition", func(n int, rng *prng.Source) mpnet.Scheduler {
			groups := make([][]types.ProcessID, rng.Intn(3)+2)
			for _, idx := range rng.Perm(n) {
				g := rng.Intn(len(groups))
				groups[g] = append(groups[g], types.ProcessID(idx))
			}
			return mpnet.NewGroupGate(n, groups)
		}},
	}
	for _, s := range scheds {
		for _, n := range []int{8, 16, 24, 32} {
			s, n := s, n
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				inputs := distinct(n)
				rng := prng.New(uint64(n))
				b.ReportAllocs()
				var events int64
				for i := 0; i < b.N; i++ {
					rec, err := mpnet.Run(mpnet.Config{
						N: n, T: n/2 - 1, K: n / 2,
						Inputs:      inputs,
						NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
						Scheduler:   s.mk(n, rng),
						Seed:        uint64(i) + 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					events += int64(rec.Events)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}

// BenchmarkSMGrant measures what the shared-memory runtime charges for one
// granted register operation — the scheduler's pick, the operation on the
// register map, and the hand-over of the turn to the process that was picked
// — under the schedules harness.SMSweep plans (hold delays the last t
// processes until the others have decided, starve until a deadline) and the
// two kinds of witness: SIMULATION(FloodMin), whose pollers read unwritten
// registers most of the time, and the native Protocol E.
func BenchmarkSMGrant(b *testing.B) {
	lastT := func(n, t int) (delayed, rest []types.ProcessID) {
		for p := 0; p < n; p++ {
			if p >= n-t {
				delayed = append(delayed, types.ProcessID(p))
			} else {
				rest = append(rest, types.ProcessID(p))
			}
		}
		return delayed, rest
	}
	scheds := []struct {
		name string
		mk   func(n, t int) smmem.Scheduler
	}{
		{"fair-random", func(int, int) smmem.Scheduler { return smmem.FairRandom{} }},
		{"hold", func(n, t int) smmem.Scheduler {
			delayed, rest := lastT(n, t)
			return smmem.NewHold(n, delayed, rest)
		}},
		{"starve", func(n, t int) smmem.Scheduler {
			delayed, _ := lastT(n, t)
			s := smmem.NewStarve(n, delayed...)
			// SIMULATION's pollers never return, so without a deadline the
			// starved would wait for the operation budget to run out.
			s.ReleaseAtOps = 8 * n * n
			return s
		}},
	}
	witnesses := []struct {
		name string
		k    func(n, t int) int
		mk   func(types.ProcessID) smmem.Protocol
	}{
		{"sim-floodmin", func(_, t int) int { return t + 1 },
			func(types.ProcessID) smmem.Protocol { return sm.NewSimulation(mp.NewFloodMin()) }},
		{"protocol-e", func(int, int) int { return 2 },
			func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() }},
	}
	for _, w := range witnesses {
		for _, s := range scheds {
			for _, n := range []int{8, 16, 24} {
				w, s, n := w, s, n
				b.Run(fmt.Sprintf("%s/%s/n=%d", w.name, s.name, n), func(b *testing.B) {
					t := n/2 - 1
					inputs := distinct(n)
					b.ReportAllocs()
					var ops int64
					for i := 0; i < b.N; i++ {
						rec, err := smmem.Run(smmem.Config{
							N: n, T: t, K: w.k(n, t),
							Inputs:      inputs,
							NewProtocol: w.mk,
							Scheduler:   s.mk(n, t),
							Seed:        uint64(i) + 1,
						})
						if err != nil {
							b.Fatal(err)
						}
						ops += int64(rec.Events)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/regop")
				})
			}
		}
	}
}

// --- End-to-end: the public API path used by downstream code ---

func BenchmarkSolveEndToEnd(b *testing.B) {
	inputs := distinct(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := kset.Solve(kset.SolveConfig{
			Model: kset.MPCR, Validity: kset.RV1,
			N: 16, K: 8, T: 7,
			Inputs: inputs,
			Seed:   uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateCell measures one empirical cell validation — the unit of
// work ksetverify and ksetreport fan out across the sweep engine: classify
// the cell, instantiate the witness protocol and sweep randomized
// adversarial scenarios through the checker.
func BenchmarkValidateCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := harness.ValidateCell(types.MPCR, types.RV1, 16, 8, 7, harness.CellOpts{Runs: 8, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if !sum.OK() {
			b.Fatalf("validation failed: %s", sum)
		}
	}
}

// BenchmarkReportRun measures the full evaluation pipeline at a small
// configuration: grids, validation sweeps, constructions, halting,
// tightness, exhaustive rederivation and latency profiling.
func BenchmarkReportRun(b *testing.B) {
	cfg := report.Config{N: 8, Runs: 4, Samples: 1, Seed: 3, GridN: 16, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := report.Run(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustiveVerify measures the small-scope verifier: one full
// quantification over inputs, faulty sets and arrival subsets.
func BenchmarkExhaustiveVerify(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v, err := kset.VerifyOneShot(kset.ProtoA, kset.RV2, n, 2, 1)
				if err != nil || !v.Holds {
					b.Fatalf("unexpected verdict: %v %v", v, err)
				}
			}
		})
	}
}

func BenchmarkClassifyPoint(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				_ = theory.Classify(m, v, 64, 17, 23)
			}
		}
	}
}
