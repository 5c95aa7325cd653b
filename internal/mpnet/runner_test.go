package mpnet_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/trace"
	"kset/internal/types"
)

// arenaCase is one run of the differential suite's space — size, protocol,
// delivery policy, fault mode, seed — as a function of the Runner it is made
// on. Every call builds its configuration afresh, since schedulers, crash
// adversaries and Byzantine strategies carry state.
type arenaCase struct {
	name string
	n    int
	run  func(r *mpnet.Runner) arenaOutcome
}

// arenaOutcome is everything a run lets an observer see: the record, the
// Recorder's pick and crash streams, and the Trace stream (hashed line by
// line, with its length).
type arenaOutcome struct {
	rec     *types.RunRecord
	err     string
	picks   []int
	crashes []trace.CrashSpec
	events  int
	stream  uint64
}

var arenaProtocols = []struct {
	name string
	maxN int // the echo protocols are cubic in n
	mk   func() mpnet.Protocol
}{
	{"floodmin", 24, func() mpnet.Protocol { return mp.NewFloodMin() }},
	{"protocol-c", 16, func() mpnet.Protocol { return mp.NewProtocolC(1) }},
	{"protocol-d", 16, func() mpnet.Protocol { return mp.NewProtocolD() }},
}

func arenaCases(seeds uint64) []arenaCase {
	var cases []arenaCase
	for _, n := range []int{1, 3, 8, 16, 24} {
		for _, proto := range arenaProtocols {
			if n > proto.maxN {
				continue
			}
			for _, pair := range policyPairs {
				for _, mode := range faultModes {
					for seed := uint64(1); seed <= seeds; seed++ {
						n, proto, pair, mode, seed := n, proto, pair, mode, seed
						cases = append(cases, arenaCase{
							name: fmt.Sprintf("n=%d/%s/%s/%s/seed=%d", n, proto.name, pair.name, mode.name, seed),
							n:    n,
							run: func(r *mpnet.Runner) arenaOutcome {
								cfg := mpnet.Config{
									N: n, T: (n - 1) / 2, K: (n + 1) / 2,
									Inputs:      distinctValues(n),
									NewProtocol: func(types.ProcessID) mpnet.Protocol { return proto.mk() },
									Seed:        seed,
								}
								byz := mode.apply(&cfg, seed)
								cfg.Scheduler, _ = pair.mk(n, seed, byz)
								return observe(r, cfg)
							},
						})
					}
				}
			}
		}
	}
	// Runs that end in an error leave the arena mid-run: pool full, self
	// queues unread. The next run must not see any of it.
	cases = append(cases,
		arenaCase{name: "bad-schedule", n: 8, run: func(r *mpnet.Runner) arenaOutcome {
			picks := 0
			return observe(r, mpnet.Config{
				N: 8, T: 3, K: 4, Inputs: distinctValues(8), Seed: 5,
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) },
				Scheduler: schedulerFunc(func(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
					if picks++; picks > 40 {
						return pool.Len()
					}
					return pool.Oldest()
				}),
			})
		}},
		arenaCase{name: "budget", n: 16, run: func(r *mpnet.Runner) arenaOutcome {
			return observe(r, mpnet.Config{
				N: 16, T: 5, K: 8, Inputs: distinctValues(16), Seed: 9, MaxEvents: 100,
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(2) },
				Scheduler:   mpnet.ChannelFIFO{},
			})
		}},
	)
	return cases
}

// observe makes one run of cfg on r with a Recorder and a Trace attached.
func observe(r *mpnet.Runner, cfg mpnet.Config) arenaOutcome {
	var out arenaOutcome
	rec := &trace.Recorder{}
	stream := fnv.New64a()
	cfg.Recorder = rec
	cfg.Trace = func(ev mpnet.TraceEvent) {
		out.events++
		fmt.Fprintln(stream, ev)
	}
	record, err := r.Run(cfg)
	out.rec, out.picks, out.crashes, out.stream = record, rec.Schedule, rec.Crashes, stream.Sum64()
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestRunnerMatchesFreshRuns is the arena's identity test: the differential
// suite's runs, made through one Runner in orders that put a large run
// before a small one and back, must each report the record, the Recorder
// streams and the Trace stream of the same run on a Runner of its own.
func TestRunnerMatchesFreshRuns(t *testing.T) {
	seeds := uint64(2)
	if testing.Short() {
		seeds = 1
	}
	cases := arenaCases(seeds)
	want := make([]arenaOutcome, len(cases))
	errored := 0
	for i, c := range cases {
		want[i] = c.run(new(mpnet.Runner))
		if want[i].err != "" {
			errored++
		} else if want[i].events == 0 {
			t.Fatalf("%s: the fresh run traced nothing", c.name)
		}
	}
	if errored != 1 {
		t.Fatalf("%d fresh runs returned an error, want exactly the bad-schedule one", errored)
	}

	type order struct {
		name  string
		cases []int
	}
	orders := []order{
		{"shuffled-1", prng.New(1).Perm(len(cases))},
		{"shuffled-2", prng.New(2).Perm(len(cases))},
	}
	// Largest and smallest alternate: every run follows one of a very
	// different size.
	bySize := make([]int, len(cases))
	for i := range bySize {
		bySize[i] = i
	}
	for i := 1; i < len(bySize); i++ {
		for j := i; j > 0 && cases[bySize[j-1]].n > cases[bySize[j]].n; j-- {
			bySize[j-1], bySize[j] = bySize[j], bySize[j-1]
		}
	}
	zigzag := make([]int, 0, len(cases))
	for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		zigzag = append(zigzag, bySize[hi])
		if lo != hi {
			zigzag = append(zigzag, bySize[lo])
		}
	}
	orders = append(orders, order{"big-small-big", zigzag})

	for _, o := range orders {
		o := o
		t.Run(o.name, func(t *testing.T) {
			var r mpnet.Runner
			for _, i := range o.cases {
				if got := cases[i].run(&r); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s on the reused runner differs from a fresh run\n got %+v (record %+v)\nwant %+v (record %+v)",
						cases[i].name, got, got.rec, want[i], want[i].rec)
				}
			}
		})
	}
}

// TestRunnerRecordsOutliveTheArena pins that a RunRecord owns its memory:
// later runs on the same Runner, larger and smaller, leave it as it was.
func TestRunnerRecordsOutliveTheArena(t *testing.T) {
	var r mpnet.Runner
	run := func(n int, seed uint64) *types.RunRecord {
		cfg := mpnet.Config{
			N: n, T: (n - 1) / 3, K: 2, Inputs: distinctValues(n), Seed: seed,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) },
			Crash:       mpnet.NewRandomCrashes(1.0/float64(n), seed),
		}
		rec, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first := run(10, 1)
	before := fmt.Sprintf("%+v", first)
	for i, n := range []int{10, 16, 4, 10} {
		run(n, uint64(i+2))
		if after := fmt.Sprintf("%+v", first); after != before {
			t.Fatalf("a later run (n=%d) changed an earlier record\nbefore %s\n after %s", n, before, after)
		}
	}
}

// TestWarmRunnerAllocations is the host-independent guard on the arena: once
// a Runner has made a run of a configuration, another allocates only what a
// run must own — the protocol instances and their state, one rng stream per
// process and the record — a small constant per process, where a fresh
// Runner also builds the process table, the view and the n*n pool and grows
// every self queue.
func TestWarmRunnerAllocations(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, t, k    int
		mk         func() mpnet.Protocol
		perProcess float64
	}{
		{"floodmin/n=16", 16, 7, 8, func() mpnet.Protocol { return mp.NewFloodMin() }, 6},
		{"protocol-c/n=12", 12, 3, 4, func() mpnet.Protocol { return mp.NewProtocolC(1) }, 13},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := mpnet.Config{
				N: c.n, T: c.t, K: c.k, Inputs: distinctValues(c.n), Seed: 1,
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return c.mk() },
			}
			var r mpnet.Runner
			run := func(r *mpnet.Runner) {
				if _, err := r.Run(cfg); err != nil {
					t.Fatal(err)
				}
			}
			run(&r)
			warm := testing.AllocsPerRun(20, func() { run(&r) })
			fresh := testing.AllocsPerRun(20, func() { run(new(mpnet.Runner)) })
			t.Logf("%s: %.0f allocations per run on a warmed runner (%.1f per process), %.0f on a fresh one",
				c.name, warm, warm/float64(c.n), fresh)
			const perRun = 10 // the record and its six slices, the run's rng
			if limit := c.perProcess*float64(c.n) + perRun; warm > limit {
				t.Errorf("%.0f allocations per warm run, want <= %.0f (%v per process + %d)", warm, limit, c.perProcess, perRun)
			}
			if warm >= fresh {
				t.Errorf("a warmed runner allocates %.0f per run, a fresh one %.0f", warm, fresh)
			}
		})
	}
}
