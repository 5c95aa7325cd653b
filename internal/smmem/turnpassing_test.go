package smmem_test

// Identity tests for turn passing: the production runtime against the old
// central-scheduler runtime kept in reference_test.go. A run is compared by
// everything it lets anyone observe — the record (or the error), the
// Recorder's grant and crash stream, and the Trace event stream — so a grant
// that goes to a different process, an adversary or scheduler consulted once
// more or once less or with a different view, or a decision stamped at a
// different operation count shows here with the set-up that produced it. A
// lost wake-up or an access off the turn shows as a hang or, under -race, as
// a report; CI runs this file repeatedly under -race for that.

import (
	"fmt"
	"reflect"
	"testing"

	"kset/internal/adversary"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// observed is everything one run shows the outside.
type observed struct {
	rec    *types.RunRecord
	err    string
	grants []string
	events []smmem.TraceEvent
}

func (o *observed) Grant(p types.ProcessID) { o.grants = append(o.grants, fmt.Sprint("grant ", p)) }
func (o *observed) CrashAtOp(p types.ProcessID, ops int) {
	o.grants = append(o.grants, fmt.Sprint("crash ", p, " at op ", ops))
}

type smRun func(smmem.Config) (*types.RunRecord, error)

func observe(run smRun, cfg smmem.Config) *observed {
	o := &observed{}
	cfg.Recorder = o
	cfg.Trace = func(ev smmem.TraceEvent) { o.events = append(o.events, ev) }
	rec, err := run(cfg)
	o.rec = rec
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// requireSameRun runs two fresh copies of one configuration (schedulers and
// adversaries carry state, so each runtime gets its own) and compares them.
func requireSameRun(t *testing.T, label string, newCfg func() smmem.Config) *observed {
	t.Helper()
	got := observe(smmem.Run, newCfg())
	want := observe(smmem.RunReference, newCfg())
	if got.err != want.err {
		t.Fatalf("%s: error %q, reference %q", label, got.err, want.err)
	}
	if !reflect.DeepEqual(got.rec, want.rec) {
		t.Fatalf("%s: records differ\n got %+v\nwant %+v", label, got.rec, want.rec)
	}
	if i := firstDiff(len(got.grants), len(want.grants), func(i int) bool { return got.grants[i] == want.grants[i] }); i >= 0 {
		t.Fatalf("%s: recorder streams differ at entry %d (%d entries, reference %d)\n got %v\nwant %v",
			label, i, len(got.grants), len(want.grants), tail(got.grants, i), tail(want.grants, i))
	}
	if i := firstDiff(len(got.events), len(want.events), func(i int) bool { return got.events[i] == want.events[i] }); i >= 0 {
		t.Fatalf("%s: trace streams differ at event %d (%d events, reference %d)\n got %v\nwant %v",
			label, i, len(got.events), len(want.events), tail(got.events, i), tail(want.events, i))
	}
	return got
}

// firstDiff returns the first index at which two streams differ, -1 if none.
func firstDiff(a, b int, same func(int) bool) int {
	for i := 0; i < a && i < b; i++ {
		if !same(i) {
			return i
		}
	}
	if a != b {
		return min(a, b)
	}
	return -1
}

// tail shows a stream from shortly before index i.
func tail[T any](s []T, i int) []T {
	lo, hi := max(i-2, 0), min(i+3, len(s))
	return s[lo:hi]
}

type runFunc func(smmem.API)

func (f runFunc) Run(api smmem.API) { f(api) }

// scan is a small native protocol: write the input, read everyone's register
// until quorum of them are written, decide the minimum seen.
func scan(api smmem.API, quorum int) { api.Decide(scanMin(api, quorum)) }

func scanMin(api smmem.API, quorum int) types.Value {
	api.WriteValue("v", api.Input())
	for {
		var minV types.Value
		count := 0
		for q := 0; q < api.N(); q++ {
			if v, ok := api.ReadValue(types.ProcessID(q), "v"); ok {
				if count == 0 || v < minV {
					minV = v
				}
				count++
			}
		}
		if count >= quorum {
			return minV
		}
	}
}

func testInputs(n int, seed uint64) []types.Value {
	rng := prng.New(seed ^ 0x9e37)
	ins := make([]types.Value, n)
	for i := range ins {
		ins[i] = types.Value(rng.Intn(5))
	}
	return ins
}

// Fault set-ups of the matrix. Each builds its adversary afresh per call.
var faultModes = []struct {
	name  string
	apply func(cfg *smmem.Config, seed uint64) []trace.ByzSpec
}{
	{"no-crash", func(*smmem.Config, uint64) []trace.ByzSpec { return nil }},
	{"scripted", func(cfg *smmem.Config, seed uint64) []trace.ByzSpec {
		at := map[types.ProcessID]int{}
		for i := 0; i < cfg.T; i++ {
			// Distinct victims; op 0 now and then so a process dies before
			// it ever takes a step.
			at[types.ProcessID((int(seed)+3*i)%cfg.N)] = (int(seed) * (i + 1)) % 7
		}
		cfg.Crash = &smmem.ScriptedCrashes{AtOp: at}
		return nil
	}},
	{"random", func(cfg *smmem.Config, seed uint64) []trace.ByzSpec {
		cfg.Crash = smmem.NewRandomCrashes(0.02, prng.New(seed+1))
		return nil
	}},
	{"garbage-writer", func(cfg *smmem.Config, seed uint64) []trace.ByzSpec {
		if cfg.T == 0 {
			return nil
		}
		p := types.ProcessID(int(seed) % cfg.N)
		cfg.Byzantine = map[types.ProcessID]smmem.Protocol{p: adversary.NewGarbageWriter(24)}
		// One more fault is left in the budget for n >= 8: crash too.
		cfg.Crash = smmem.NewRandomCrashes(0.01, prng.New(seed+2))
		return []trace.ByzSpec{{Proc: p, Kind: trace.ByzGarbageWriter, Rounds: 24}}
	}},
}

// Witness protocols of the matrix, by seed: the two native ones and
// SIMULATION, whose pollers never return and are unwound by the runtime.
var witnessSpecs = []trace.ProtocolSpec{
	{Proto: theory.ProtoE},
	{Proto: theory.ProtoFloodMin, Sim: true},
	{Proto: theory.ProtoF},
	{Proto: theory.ProtoA, Sim: true},
}

// matrixConfig is one cell of the matrix without its scheduler.
func matrixConfig(t *testing.T, n int, seed uint64, fault int) (smmem.Config, trace.ProtocolSpec, []trace.ByzSpec) {
	t.Helper()
	spec := witnessSpecs[int(seed)%len(witnessSpecs)]
	factory, err := spec.SMFactory()
	if err != nil {
		t.Fatal(err)
	}
	cfg := smmem.Config{
		N: n, T: (n - 1) / 2, K: n/2 + 1,
		Inputs:      testInputs(n, seed),
		NewProtocol: factory,
		Seed:        seed,
		// Small enough that the runs that cannot decide (a held majority, a
		// starved quorum) end by budget exhaustion, another path to compare.
		MaxOps: 150 * n,
	}
	byz := faultModes[fault].apply(&cfg, seed)
	return cfg, spec, byz
}

func TestTurnPassingMatchesReference(t *testing.T) {
	half := func(n, from, to int) []types.ProcessID {
		var ids []types.ProcessID
		for p := from; p < to && p < n; p++ {
			ids = append(ids, types.ProcessID(p))
		}
		return ids
	}
	schedulers := []struct {
		name string
		make func(n int) smmem.Scheduler
	}{
		{"fair-random", func(int) smmem.Scheduler { return smmem.FairRandom{} }},
		{"round-robin", func(int) smmem.Scheduler { return &smmem.RoundRobin{} }},
		{"hold", func(n int) smmem.Scheduler {
			h := smmem.NewHold(n, half(n, n/2, n), half(n, 0, n/2))
			h.ReleaseAtOps = 100 * n
			return h
		}},
		{"hold-all", func(n int) smmem.Scheduler {
			// Everyone held, nobody watched... until the gate's own
			// fallback releases one at a time.
			return smmem.NewHold(n, half(n, 0, n), half(n, 0, 1))
		}},
		{"starve", func(n int) smmem.Scheduler {
			s := smmem.NewStarve(n, 0, types.ProcessID(n-1))
			s.ReleaseAtOps = 60 * n
			return s
		}},
	}
	ns := []int{1, 3, 8, 16}
	seeds := uint64(20)
	if testing.Short() {
		ns, seeds = []int{1, 3, 8}, 6
	}
	for _, n := range ns {
		for seed := uint64(1); seed <= seeds; seed++ {
			for fault := range faultModes {
				for _, s := range schedulers {
					label := fmt.Sprintf("%s n=%d seed=%d %s", s.name, n, seed, faultModes[fault].name)
					requireSameRun(t, label, func() smmem.Config {
						cfg, _, _ := matrixConfig(t, n, seed, fault)
						cfg.Scheduler = s.make(n)
						return cfg
					})
				}

				// The replay scheduler: capture the fair run, then replay its
				// schedule as recorded and damaged the ways the shrinker
				// damages it (cut short, entries dropped), which walks
				// smReplay's skip and lowest-pending fallbacks.
				label := fmt.Sprintf("replay n=%d seed=%d %s", n, seed, faultModes[fault].name)
				cfg, spec, byz := matrixConfig(t, n, seed, fault)
				if len(cfg.Byzantine) > cfg.T {
					continue
				}
				captured, _, err := trace.CaptureSM(cfg, types.RV2, spec, byz)
				if err != nil {
					t.Fatalf("%s: capture: %v", label, err)
				}
				full := captured.Schedule
				thinned := make([]int, 0, len(full))
				for i, p := range full {
					if i%5 != 3 {
						thinned = append(thinned, p)
					}
				}
				for _, script := range []struct {
					name     string
					schedule []int
				}{{"recorded", full}, {"cut", full[:len(full)/2]}, {"thinned", thinned}} {
					damaged := *captured
					damaged.Schedule = script.schedule
					requireSameRun(t, label+" "+script.name, func() smmem.Config {
						cfg, err := trace.BuildSMConfig(&damaged)
						if err != nil {
							t.Fatal(err)
						}
						return cfg
					})
				}
			}
		}
	}
}

// badPick is FairRandom until its after-th pick, which names a process that
// is not pending: out of range, or one that has returned.
type badPick struct {
	after int
	pick  types.ProcessID
}

func (b *badPick) Next(_ *smmem.View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	if b.after--; b.after < 0 {
		return b.pick
	}
	return pending[rng.Intn(len(pending))]
}

// TestTurnPassingMatchesReferenceEdges covers the paths a well-behaved
// protocol under a well-behaved scheduler never takes.
func TestTurnPassingMatchesReferenceEdges(t *testing.T) {
	type namedSched struct {
		name string
		make func() smmem.Scheduler
	}
	both := []namedSched{
		{"fair-random", func() smmem.Scheduler { return smmem.FairRandom{} }},
		{"round-robin", func() smmem.Scheduler { return &smmem.RoundRobin{} }},
	}
	edges := []struct {
		name    string
		proto   func(n int) func(types.ProcessID) smmem.Protocol
		sched   func() smmem.Scheduler // nil: fair-random and round-robin
		maxOps  int
		minN    int // smallest n at which the edge exists
		wantErr error
		check   func(t *testing.T, n int, o *observed)
	}{
		{
			name: "returns-without-an-operation",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id%3 == 0 {
							return // gone before the schedule begins, undecided
						}
						scan(api, 1)
					})
				}
			},
			check: func(t *testing.T, n int, o *observed) {
				if o.rec.Decided[0] {
					t.Error("process 0 returned at once, yet is recorded as decided")
				}
			},
		},
		{
			name: "everyone-returns-at-once",
			proto: func(int) func(types.ProcessID) smmem.Protocol {
				return func(types.ProcessID) smmem.Protocol { return runFunc(func(smmem.API) {}) }
			},
			check: func(t *testing.T, n int, o *observed) {
				if o.rec.Events != 0 || len(o.grants) != 0 {
					t.Errorf("%d operations, %d grants in a run without requests", o.rec.Events, len(o.grants))
				}
			},
		},
		{
			name: "decides-before-its-first-operation",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id%2 == 0 {
							api.Decide(api.Input())
							if id%4 != 0 {
								scanMin(api, (n+1)/2)
							}
							return // for every fourth: decision and exit in one breath
						}
						scan(api, (n+1)/2)
					})
				}
			},
			check: func(t *testing.T, n int, o *observed) {
				if !o.rec.Decided[0] || o.rec.DecidedAtEvent[0] != 0 {
					t.Errorf("process 0 decided before any operation, recorded decided=%v at %d",
						o.rec.Decided[0], o.rec.DecidedAtEvent[0])
				}
			},
		},
		{
			name: "double-decide-at-start",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id == 0 {
							api.Decide(1)
							api.Decide(2)
						}
						if id%2 == 1 {
							api.Decide(api.Input()) // the final trace shows who got this far
						}
						scan(api, n)
					})
				}
			},
			wantErr: smmem.ErrDoubleDecide,
		},
		{
			name: "double-decide-mid-run",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if int(id) == n/2 {
							api.WriteValue("v", api.Input())
							api.Decide(1)
							_, _ = api.ReadValue(0, "v")
							api.Decide(2)
							return // the exit, not a request, brings the bug in
						}
						scan(api, n)
					})
				}
			},
			minN:    3, // alone, its first decision already ends the run
			wantErr: smmem.ErrDoubleDecide,
		},
		{
			name: "bad-pick-out-of-range",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(types.ProcessID) smmem.Protocol { return runFunc(func(api smmem.API) { scan(api, n) }) }
			},
			sched:   func() smmem.Scheduler { return &badPick{after: 1, pick: 99} },
			wantErr: smmem.ErrBadSchedule,
		},
		{
			name: "bad-pick-returned-process",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id == 0 {
							return
						}
						scan(api, n-1)
					})
				}
			},
			sched:   func() smmem.Scheduler { return &badPick{after: 3, pick: 0} },
			minN:    3, // alone, it returns and the scheduler is never asked
			wantErr: smmem.ErrBadSchedule,
		},
		{
			name: "budget-exhaustion",
			proto: func(int) func(types.ProcessID) smmem.Protocol {
				return func(types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						for {
							_, _ = api.ReadValue(0, "v")
						}
					})
				}
			},
			maxOps: 100,
			check: func(t *testing.T, n int, o *observed) {
				if !o.rec.BudgetExhausted || o.rec.Events != 100 {
					t.Errorf("exhausted=%v after %d operations, want true after 100", o.rec.BudgetExhausted, o.rec.Events)
				}
			},
		},
	}
	for _, e := range edges {
		scheds := both
		if e.sched != nil {
			scheds = []namedSched{{"custom", e.sched}}
		}
		for _, sched := range scheds {
			for _, n := range []int{1, 3, 8, 16} {
				if n < e.minN {
					continue
				}
				for seed := uint64(1); seed <= 5; seed++ {
					label := fmt.Sprintf("%s %s n=%d seed=%d", e.name, sched.name, n, seed)
					o := requireSameRun(t, label, func() smmem.Config {
						return smmem.Config{
							N: n, T: (n - 1) / 2, K: n,
							Inputs:      testInputs(n, seed),
							NewProtocol: e.proto(n),
							Scheduler:   sched.make(),
							Crash:       smmem.NewRandomCrashes(0.01, prng.New(seed)),
							Seed:        seed,
							MaxOps:      e.maxOps,
						}
					})
					switch {
					case e.wantErr != nil:
						if o.rec != nil || o.err == "" {
							t.Fatalf("%s: no error, want %v", label, e.wantErr)
						}
						if want := e.wantErr.Error(); len(o.err) < len(want) || o.err[:len(want)] != want {
							t.Fatalf("%s: error %q, want %v", label, o.err, e.wantErr)
						}
					case o.err != "":
						t.Fatalf("%s: %s", label, o.err)
					case e.check != nil:
						e.check(t, n, o)
					}
				}
			}
		}
	}
}

// TestHandoffsPerGrant pins what turn passing is for: a granted operation
// costs at most one goroutine switch, and none when the scheduler picks the
// process that is already running — so a one-process run never switches.
func TestHandoffsPerGrant(t *testing.T) {
	for _, n := range []int{1, 3, 8, 16} {
		for seed := uint64(1); seed <= 5; seed++ {
			rec, handoffs, err := smmem.RunCountingHandoffs(smmem.Config{
				N: n, T: (n - 1) / 2, K: n,
				Inputs: testInputs(n, seed),
				NewProtocol: func(types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) { scan(api, (n+1)/2) })
				},
				Crash: smmem.NewRandomCrashes(0.02, prng.New(seed+1)),
				Seed:  seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Events == 0 {
				t.Fatalf("n=%d seed=%d: no operation granted, nothing measured", n, seed)
			}
			if handoffs > rec.Events {
				t.Errorf("n=%d seed=%d: %d hand-offs for %d granted operations", n, seed, handoffs, rec.Events)
			}
			if n == 1 && handoffs != 0 {
				t.Errorf("n=1 seed=%d: %d hand-offs, a lone process only ever grants itself", seed, handoffs)
			}
			if n > 1 && handoffs == 0 {
				t.Errorf("n=%d seed=%d: no hand-off in %d operations: the counter is not counting", n, seed, rec.Events)
			}
		}
	}
}
