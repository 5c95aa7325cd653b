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
	crashes []types.CrashPoint
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
	rec.MP(&cfg)
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

// TestRunnerRecordValidUntilNextRun pins who owns a record. A Runner's is
// the arena's: every Run returns the same one, overwritten, so a Clone taken
// before later runs — larger and smaller — is left as it was and equals the
// record a fresh Run makes. The package-level Run's record is the caller's:
// later runs leave it as it was.
func TestRunnerRecordValidUntilNextRun(t *testing.T) {
	var r mpnet.Runner
	cfg := func(n int, seed uint64) mpnet.Config {
		return mpnet.Config{
			N: n, T: (n - 1) / 3, K: 2, Inputs: distinctValues(n), Seed: seed,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) },
			Crash:       &types.RandomCrashes{Rate: 1.0 / float64(n), Seed: seed},
		}
	}
	run := func(run func(mpnet.Config) (*types.RunRecord, error), n int, seed uint64) *types.RunRecord {
		rec, err := run(cfg(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	first := run(r.Run, 10, 1)
	kept := first.Clone()
	owned := run(mpnet.Run, 10, 1)
	if !reflect.DeepEqual(kept, owned) {
		t.Fatalf("a Runner's record differs from a fresh Run's\nrunner %+v\n fresh %+v", kept, owned)
	}
	before, ownedBefore := fmt.Sprintf("%+v", kept), fmt.Sprintf("%+v", owned)
	for i, n := range []int{10, 16, 4, 10} {
		if rec := run(r.Run, n, uint64(i+2)); rec != first {
			t.Fatalf("run %d (n=%d) returned another record than the Runner's", i+2, n)
		}
		run(mpnet.Run, n, uint64(i+2))
		if after := fmt.Sprintf("%+v", kept); after != before {
			t.Fatalf("a later run (n=%d) changed a cloned record\nbefore %s\n after %s", n, before, after)
		}
		if after := fmt.Sprintf("%+v", owned); after != ownedBefore {
			t.Fatalf("a later run (n=%d) changed a record of the package-level Run\nbefore %s\n after %s", n, ownedBefore, after)
		}
	}
}

// TestWarmRunnerAllocations is the host-independent guard on the arena: once
// a Runner has made a run of a configuration, another allocates only the
// protocol instances and their state, which this test builds anew for every
// run — a small constant per process — where a fresh Runner also builds the
// process table, the view, the n*n pool and the record and grows every self
// queue. The processes' rng streams live in the process table, and the
// record is the arena's.
func TestWarmRunnerAllocations(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, t, k    int
		mk         func() mpnet.Protocol
		perProcess float64
	}{
		{"floodmin/n=16", 16, 7, 8, func() mpnet.Protocol { return mp.NewFloodMin() }, 4},
		{"protocol-c/n=12", 12, 3, 4, func() mpnet.Protocol { return mp.NewProtocolC(1) }, 11},
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
			if limit := c.perProcess * float64(c.n); warm > limit {
				t.Errorf("%.0f allocations per warm run, want <= %.0f (%v per process)", warm, limit, c.perProcess)
			}
			if warm >= fresh {
				t.Errorf("a warmed runner allocates %.0f per run, a fresh one %.0f", warm, fresh)
			}
		})
	}
}

// chatter never decides: it broadcasts its input at Start and passes every
// delivery on to the next process, so a run keeps messages in flight until
// its event budget ends it, with no decision or crash to move View.Changes.
type chatter struct{}

func (chatter) Start(api mpnet.API) {
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (chatter) Deliver(api mpnet.API, from types.ProcessID, p types.Payload) {
	api.Send(types.ProcessID((int(api.ID())+1)%api.N()), p)
}

// TestGroupGateReuseAcrossRuns reuses one GroupGate for two runs of one
// Runner whose Byzantine sets differ, and requires of each the picks a fresh
// gate makes on a fresh Runner. The Byzantine set decides which gates stand
// open — a group of faulty processes only is open from the start — and no
// decision or crash happens in either run, so a gate that kept its answer
// for the same View at the same Changes within a run's counting alone
// (the View is the Runner's one value) would carry the first run's gates
// into the second.
func TestGroupGateReuseAcrossRuns(t *testing.T) {
	const n = 6
	groups := [][]types.ProcessID{{0, 1}, {2, 3}, {4, 5}}
	cfg := func(byz []types.ProcessID, gate *mpnet.GroupGate) mpnet.Config {
		c := mpnet.Config{
			N: n, T: 2, K: 3, Inputs: distinctValues(n), Seed: 11, MaxEvents: 120,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return chatter{} },
			Byzantine:   map[types.ProcessID]mpnet.Protocol{},
			Scheduler:   gate,
		}
		for _, p := range byz {
			c.Byzantine[p] = chatter{}
		}
		return c
	}
	var r mpnet.Runner
	reused := mpnet.NewGroupGate(n, groups)
	for _, byz := range [][]types.ProcessID{{0, 1}, {4, 5}, {0, 1}} {
		got := observe(&r, cfg(byz, reused))
		want := observe(new(mpnet.Runner), cfg(byz, mpnet.NewGroupGate(n, groups)))
		if got.err != "" || want.err != "" {
			t.Fatalf("Byzantine %v: %q, %q", byz, got.err, want.err)
		}
		if !reflect.DeepEqual(got.picks, want.picks) {
			t.Fatalf("Byzantine %v: a reused gate picks %v,\na fresh one %v", byz, got.picks, want.picks)
		}
	}
}
