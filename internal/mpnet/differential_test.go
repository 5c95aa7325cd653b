package mpnet_test

import (
	"fmt"
	"reflect"
	"testing"

	"kset/internal/adversary"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/trace"
	"kset/internal/types"
)

// probe wraps a scheduler for the differential tests: before every pick it
// walks the pool's index against the envelope slice, and around every pick it
// counts the rng draws the policy made. With forceIndex it asks the pool an
// index question first, so that policies that never use the index (and so
// remove envelopes from arbitrary positions) run with it maintained.
type probe struct {
	t          *testing.T
	inner      mpnet.Scheduler
	forceIndex bool
	draws      []int
}

func (p *probe) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	if p.forceIndex {
		pool.Oldest()
	}
	if err := pool.CheckIndex(); err != nil {
		p.t.Fatalf("pool index before pick %d: %v", len(p.draws), err)
	}
	before := *rng
	idx := p.inner.Next(view, pool, rng)
	draws := 0
	for before != *rng {
		before.Uint64()
		if draws++; draws > 64 {
			p.t.Fatalf("pick %d: rng state unreachable from the state before the pick", len(p.draws))
		}
	}
	p.draws = append(p.draws, draws)
	return idx
}

// policyPair builds the production scheduler and its pre-index reference with
// the same parameters. byz marks the Byzantine ids (nil when there are none).
type policyPair struct {
	name string
	mk   func(n int, seed uint64, byz []bool) (prod, ref mpnet.Scheduler)
}

// randomGroups splits the processes into 2-4 groups the way
// harness.randomPartitionGate does.
func randomGroups(n int, seed uint64) [][]types.ProcessID {
	rng := prng.New(seed)
	count := rng.Intn(3) + 2
	if count > n {
		count = n
	}
	groups := make([][]types.ProcessID, count)
	for _, idx := range rng.Perm(n) {
		g := rng.Intn(count)
		groups[g] = append(groups[g], types.ProcessID(idx))
	}
	return groups
}

var policyPairs = []policyPair{
	{"fair-random", func(int, uint64, []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		return mpnet.FairRandom{}, refFairRandom{}
	}},
	{"fifo", func(int, uint64, []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		return mpnet.FIFO{}, refFIFO{}
	}},
	{"lifo", func(int, uint64, []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		return mpnet.LIFO{}, refLIFO{}
	}},
	{"channel-fifo", func(int, uint64, []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		return mpnet.ChannelFIFO{}, refChannelFIFO{}
	}},
	{"group-gate", func(n int, seed uint64, byz []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		g := mpnet.NewGroupGate(n, randomGroups(n, seed))
		g.FromAlways = byz
		return g, &refGroupGate{Group: g.Group, FromAlways: byz}
	}},
	{"group-gate-partial", func(n int, _ uint64, byz []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		// Only the first process is listed: the rest share group -1.
		g := mpnet.NewGroupGate(n, [][]types.ProcessID{{0}})
		g.FromAlways = byz
		return g, &refGroupGate{Group: g.Group, FromAlways: byz}
	}},
	{"prefer-intra", func(n int, seed uint64, _ []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		p := mpnet.NewPreferIntra(n, randomGroups(n, seed))
		return p, &refPreferIntra{Group: p.Group}
	}},
	{"delay-process", func(n int, _ uint64, _ []bool) (mpnet.Scheduler, mpnet.Scheduler) {
		d := mpnet.NewDelayProcess(n, types.ProcessID(n-1), 0)
		return d, &refDelayProcess{Delayed: d.Delayed}
	}},
}

// faultModes are the four ways a differential run is perturbed. Each returns
// a fresh adversary per call, since crash adversaries and Byzantine
// strategies carry state.
var faultModes = []struct {
	name  string
	apply func(cfg *mpnet.Config, seed uint64) (byz []bool)
}{
	{"no-crashes", func(*mpnet.Config, uint64) []bool { return nil }},
	{"scripted-crashes", func(cfg *mpnet.Config, seed uint64) []bool {
		rng := prng.New(seed ^ 0x5c)
		var crashes types.ScriptedCrashes
		for _, idx := range rng.Perm(cfg.N)[:cfg.T] {
			c := types.CrashPoint{Proc: types.ProcessID(idx), Kind: types.CrashAtEvent}
			if rng.Bool() {
				c.Index = rng.Intn(3 * cfg.N)
			} else {
				c.Kind, c.Index = types.CrashAtSend, rng.Intn(2*cfg.N)+1
			}
			crashes = append(crashes, c)
		}
		cfg.Crash = crashes
		return nil
	}},
	{"random-crashes", func(cfg *mpnet.Config, seed uint64) []bool {
		// Crashes at arbitrary points of the run: the path that discards
		// in-flight messages and rebuilds the index.
		cfg.Crash = &types.RandomCrashes{Rate: 2.0 / float64(cfg.N), Seed: seed + 1}
		return nil
	}},
	{"byzantine", func(cfg *mpnet.Config, seed uint64) []bool {
		rng := prng.New(seed ^ 0xb2)
		byz := make([]bool, cfg.N)
		cfg.Byzantine = make(map[types.ProcessID]mpnet.Protocol, cfg.T)
		for i, idx := range rng.Perm(cfg.N)[:cfg.T] {
			byz[idx] = true
			if i%2 == 0 {
				cfg.Byzantine[types.ProcessID(idx)] = adversary.NewRandomNoise(2)
			} else {
				cfg.Byzantine[types.ProcessID(idx)] = adversary.Silent{}
			}
		}
		return byz
	}},
}

type outcome struct {
	rec     *types.RunRecord
	err     error
	picks   []int
	crashes []types.CrashPoint
	draws   []int
}

// TestSchedulersMatchReference is the differential oracle for the indexed
// pool: every production policy against its old body (reference_test.go), on
// the same configuration and seed, must record the same pick sequence, the
// same crash points, the same number of rng draws at every
// pick and the same RunRecord — while the pool's index is walked against the
// envelope slice before every pick.
func TestSchedulersMatchReference(t *testing.T) {
	sizes := []int{3, 8, 16, 24}
	seeds := uint64(20)
	for _, pair := range policyPairs {
		for _, n := range sizes {
			for _, mode := range faultModes {
				pair, n, mode := pair, n, mode
				t.Run(fmt.Sprintf("%s/n=%d/%s", pair.name, n, mode.name), func(t *testing.T) {
					runs := seeds
					if testing.Short() && n > 16 {
						runs = 4 // the reference channel-fifo is quadratic in n*n
					}
					for seed := uint64(1); seed <= runs; seed++ {
						run := func(reference, forceIndex bool) outcome {
							cfg := mpnet.Config{
								N: n, T: (n - 1) / 2, K: (n + 1) / 2,
								Inputs:      distinctValues(n),
								NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
								Seed:        seed,
							}
							if n <= 8 && mode.name == "byzantine" {
								// Echo traffic: many messages per channel.
								cfg.NewProtocol = func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) }
							}
							byz := mode.apply(&cfg, seed)
							prod, ref := pair.mk(n, seed, byz)
							pr := &probe{t: t, inner: prod, forceIndex: forceIndex}
							if reference {
								pr.inner = ref
							}
							rec := &trace.Recorder{}
							cfg.Scheduler = pr
							rec.MP(&cfg)
							record, err := mpnet.Run(cfg)
							return outcome{record, err, rec.Schedule, rec.Crashes, pr.draws}
						}
						want := run(true, false)
						if want.err != nil {
							t.Fatalf("seed %d: reference run: %v", seed, want.err)
						}
						if len(want.picks) == 0 {
							t.Fatalf("seed %d: reference run made no pick", seed)
						}
						for _, forceIndex := range []bool{false, true} {
							got := run(false, forceIndex)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("seed %d (index forced: %v): run differs from the reference\n got picks %v\nwant picks %v\n got draws %v\nwant draws %v\n got crashes %v\nwant crashes %v\n got %+v (err %v)\nwant %+v",
									seed, forceIndex, got.picks, want.picks, got.draws, want.draws,
									got.crashes, want.crashes, got.rec, got.err, want.rec)
							}
						}
					}
				})
			}
		}
	}
}

func distinctValues(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(i + 1)
	}
	return out
}

// TestPicksDoNotAllocate is the host-independent guard on the scheduler cost
// contract: once a run is going, a pick by any of the policies that used to
// build a map or an eligible slice per delivery allocates nothing.
func TestPicksDoNotAllocate(t *testing.T) {
	const n = 16
	byz := make([]bool, n)
	byz[3] = true
	for _, pair := range policyPairs {
		switch pair.name {
		case "channel-fifo", "group-gate", "prefer-intra", "delay-process":
		default:
			continue
		}
		pair := pair
		t.Run(pair.name, func(t *testing.T) {
			sched, _ := pair.mk(n, 7, byz)
			var allocs float64
			var r prng.Source // the measured calls draw from a copy, so the run is not perturbed
			measured := false
			_, err := mpnet.Run(mpnet.Config{
				N: n, T: n/2 - 1, K: n / 2,
				Inputs:      distinctValues(n),
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
				Seed:        7,
				Scheduler: schedulerFunc(func(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
					// Measure at the tenth pick: the pool is full and the
					// policy's scratch and the pool's index exist.
					if !measured && view.Events == 10 {
						measured = true
						allocs = testing.AllocsPerRun(100, func() {
							r = *rng
							sched.Next(view, pool, &r)
						})
					}
					return sched.Next(view, pool, rng)
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !measured {
				t.Fatal("the run ended before the measured pick")
			}
			if allocs != 0 {
				t.Errorf("%s: %.1f allocations per pick, want 0", pair.name, allocs)
			}
		})
	}
}

type schedulerFunc func(*mpnet.View, *mpnet.Pool, *prng.Source) int

func (f schedulerFunc) Next(view *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	return f(view, pool, rng)
}
