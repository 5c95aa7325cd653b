package smmem_test

import (
	"fmt"
	"strings"
	"testing"

	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// TestStarveHoldReusedMatchFresh: Starve and Hold keep their candidates, and
// Hold its gate, from one pick to the next. One policy reused for run after
// run — as Construction.Violate reuses a construction's, on a fresh Runner
// each time, and a sweep's arena reuses its own, on one Runner whose View is
// the same pointer in every run — must show every run exactly as a fresh
// policy on a fresh Runner does: record, Recorder stream and Trace stream.
// The runs' crash sets differ, so their pending lists shrink through
// different processes to the same lengths, and a gate opened in one run is
// closed at the start of the next.
func TestStarveHoldReusedMatchFresh(t *testing.T) {
	policies := []struct {
		name string
		make func(n int) smmem.Scheduler
	}{
		{"hold", func(n int) smmem.Scheduler {
			h := smmem.NewHold(n, idRange(n/2, n), idRange(0, n/2))
			h.ReleaseAtOps = 100 * n
			return h
		}},
		{"hold-all", func(n int) smmem.Scheduler { return smmem.NewHold(n, idRange(0, n), idRange(0, 1)) }},
		{"starve", func(n int) smmem.Scheduler {
			s := smmem.NewStarve(n, 0, types.ProcessID(n-1))
			s.ReleaseAtOps = 60 * n
			return s
		}},
		{"starve-one", func(n int) smmem.Scheduler { return smmem.NewStarve(n, 1) }},
	}
	const seeds = 16
	shrank := 0
	for _, n := range []int{3, 8} {
		for _, p := range policies {
			reused, onRunner := p.make(n), p.make(n)
			var r smmem.Runner
			for seed := uint64(1); seed <= seeds; seed++ {
				// The scripted and the random crashes of the matrix, in turn.
				fault := 1 + int(seed)%2
				run := func(run func(smmem.Config) (*types.RunRecord, error), sched smmem.Scheduler) *observed {
					cfg, _, _ := matrixConfig(t, n, seed, fault)
					cfg.Scheduler = sched
					return observeOn(run, cfg)
				}
				want := run(smmem.Run, p.make(n))
				for _, got := range []*observed{run(smmem.Run, reused), run(r.Run, onRunner)} {
					if d := streamDifference(got, want); d != "" {
						t.Errorf("%s %s n=%d seed=%d: the reused policy differs from a fresh one: %s",
							p.name, faultModes[fault].name, n, seed, d)
					}
				}
				if want.rec != nil && want.rec.FaultCount() > 0 {
					shrank++
				}
			}
		}
	}
	if shrank == 0 {
		t.Error("no run crashed a process: pending never shrank")
	}
}

// TestRoundRobinRestartMatchesFresh: RoundRobin keeps the process it granted
// last and starts again above process 0 on every new (view, Run) pair. One
// RoundRobin reused run after run on fresh Runners, and one on a single
// Runner, must show every run as a fresh RoundRobin does: record, Recorder
// stream and Trace stream. Some run before the last ends on a grant to a
// process other than 0, so a RoundRobin that carried its last grant over
// would make the next run's first grant differently.
func TestRoundRobinRestartMatchesFresh(t *testing.T) {
	const seeds = 8
	for _, n := range []int{3, 8} {
		reused, onRunner := &lastGrant{inner: &smmem.RoundRobin{}}, &lastGrant{inner: &smmem.RoundRobin{}}
		var r smmem.Runner
		carried := 0
		for seed := uint64(1); seed <= seeds; seed++ {
			fault := int(seed) % len(faultModes)
			run := func(run func(smmem.Config) (*types.RunRecord, error), sched smmem.Scheduler) *observed {
				cfg, _, _ := matrixConfig(t, n, seed, fault)
				cfg.Scheduler = sched
				return observeOn(run, cfg)
			}
			want := run(smmem.Run, &smmem.RoundRobin{})
			for _, got := range []*observed{run(smmem.Run, reused), run(r.Run, onRunner)} {
				if d := streamDifference(got, want); d != "" {
					t.Errorf("n=%d seed=%d %s: the reused RoundRobin differs from a fresh one: %s",
						n, seed, faultModes[fault].name, d)
				}
			}
			if seed < seeds && reused.last != 0 {
				carried++
			}
		}
		if carried == 0 {
			t.Errorf("n=%d: every run ended on a grant to process 0, where a fresh RoundRobin starts anyway", n)
		}
	}
}

// lastGrant notes the process its scheduler granted last.
type lastGrant struct {
	inner smmem.Scheduler
	last  types.ProcessID
}

func (s *lastGrant) Next(v *smmem.View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	s.last = s.inner.Next(v, pending, rng)
	return s.last
}

// TestRunnerReusedMatchesFresh: one Runner runs the whole stream matrix —
// every scheduler, every fault mode, n = 1, 3, 8 and 16 — and every run's
// record, Recorder stream and Trace stream must be those of a fresh Run.
// Before every fourth run the Runner runs one of the spoilers below, which
// leave its arena the ways a run can end: with ErrDoubleDecide, with
// ErrBadSchedule, out of budget, and by a panic out of a poll handler with a
// write queued. Each spoiler runs 16 processes that fill the families the
// matrix's protocols use (bc/, msg/<q>/, input) and write far past their
// ends, so a register, a resolved Name or a queued write left over from it
// would show in the next run.
func TestRunnerReusedMatchesFresh(t *testing.T) {
	var r smmem.Runner
	const seeds = 6
	runs := 0
	for _, n := range []int{1, 3, 8, 16} {
		for fault := range faultModes {
			for _, s := range matrixSchedulers {
				for seed := uint64(1); seed <= seeds; seed++ {
					if runs++; runs%4 == 0 {
						spoil(t, &r, runs/4%len(spoilers))
					}
					build := func() smmem.Config {
						cfg, _, _ := matrixConfig(t, n, seed, fault)
						cfg.Scheduler = s.make(n)
						return cfg
					}
					want, got := observe(build()), observeOn(r.Run, build())
					if d := streamDifference(got, want); d != "" {
						t.Errorf("%s %s n=%d seed=%d: the reused Runner differs from a fresh Run: %s",
							s.name, faultModes[fault].name, n, seed, d)
					}
				}
			}
		}
	}
}

// spoilers are runs that end badly; want names how (an error, "budget" or
// the panic's text).
var spoilers = []struct {
	name  string
	want  string
	sched func() smmem.Scheduler
	run   func(api smmem.API)
}{
	{"double-decide", smmem.ErrDoubleDecide.Error(), nil, func(api smmem.API) {
		litter(api)
		after(api, func() {
			api.Decide(1)
			read(api, smmem.Reg{Name: "bc/", Index: 1}, func(types.Payload, bool) { api.Decide(2) })
		})
	}},
	{"bad-schedule", smmem.ErrBadSchedule.Error(), func() smmem.Scheduler { return &badPick{after: 40, pick: 99} },
		func(api smmem.API) {
			litter(api)
			spin(api, smmem.Reg{Name: "bc/", Index: 7})
		}},
	{"budget", "budget", nil, func(api smmem.API) {
		litter(api)
		api.Poll(0, []smmem.Reg{{Owner: 1, Name: "bc/", Index: 900}, {Owner: 2, Name: "never"}},
			func(int, types.Payload) bool { return true }, nil)
	}},
	{"panic-in-handler", "a spoiler's handler panics", nil, func(api smmem.API) {
		litter(api)
		api.Poll(0, []smmem.Reg{{Owner: 0, Name: "bc/", Index: 1}, {Owner: 1, Name: "input"}},
			func(int, types.Payload) bool {
				api.WriteValue("bc/", 4, 7)
				if api.ID() == 9 {
					panic("a spoiler's handler panics")
				}
				return true
			}, nil)
	}},
}

// litter writes what the spoilers leave behind: registers in every family
// the matrix reads, in order, with gaps and far past the end.
func litter(api smmem.API) {
	api.WriteValue("input", 0, 99)
	bc := []int{0, 1, 2, 1000}
	if api.ID()%2 == 1 {
		bc = []int{1, 3, 1000}
	}
	for _, i := range bc {
		api.WriteValue("bc/", i, 99)
	}
	for q := 0; q < api.N(); q++ {
		api.WriteValue(fmt.Sprint("msg/", q, "/"), q%3, 99)
	}
	api.WriteValue("msg/1/", 1000000000, 99)
}

// spoil runs spoiler s on r and checks that it ended the way it is meant to.
func spoil(t *testing.T, r *smmem.Runner, s int) {
	t.Helper()
	sp := spoilers[s]
	const n = 16
	cfg := smmem.Config{
		N: n, T: 1, K: 1,
		Inputs:      testInputs(n, 7),
		NewProtocol: func(types.ProcessID) smmem.Protocol { return runFunc(sp.run) },
		Seed:        7,
		MaxOps:      3000,
	}
	if sp.sched != nil {
		cfg.Scheduler = sp.sched()
	}
	var rec *types.RunRecord
	var err error
	recovered := func() (v any) {
		defer func() { v = recover() }()
		rec, err = r.Run(cfg)
		return nil
	}()
	var ended string
	switch {
	case recovered != nil:
		ended = fmt.Sprint(recovered)
	case err != nil:
		ended = err.Error()
	case rec.BudgetExhausted:
		ended = "budget"
	}
	if ended == "" || !strings.HasPrefix(ended, sp.want) {
		t.Fatalf("spoiler %s ended with %q (record %v, error %v), want %q", sp.name, ended, rec, err, sp.want)
	}
}
