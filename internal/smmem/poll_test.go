package smmem_test

// API.Poll and API.Scan are specified as the loops of reads they replace,
// the handler called on every hit of a poll and the visitor on every read of
// a scan, the writes either makes performed right after it returns, and the
// call's then after the last. The tests below run a native protocol twice,
// once with the API's own calls and once with those loops written out a
// read at a time, and require everything the run shows the outside — the
// record or error, the Recorder stream and the Trace stream — to be equal.
// The protocols' handlers go on, stop, read a register they found again,
// move a channel on by its Index, give another channel's Reg a Name built
// anew, write and decide, each in both spellings.

import (
	"fmt"
	"strings"
	"testing"

	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/trace"
	"kset/internal/types"
)

// spelling is one way of writing a poll and a scan: the process's protocol
// runs on spell(api).
type spelling func(smmem.API) smmem.API

// native is the API's own Poll and Scan.
func native(api smmem.API) smmem.API { return api }

// readLoops is Poll and Scan written a read at a time.
func readLoops(api smmem.API) smmem.API { return &loopAPI{API: api} }

// loopAPI's Poll and Scan are the loops of their contracts, every read its
// own Scan of one register, whose then posts the loop's next read: a poll's
// miss moves to the next register and a hit goes to hit, which ends the
// poll or has it read regs[i] again; a scan hands every read to visit. The
// handler runs in the one-register Scan's visitor, so its writes are
// granted right after it returns, before the next read.
type loopAPI struct {
	smmem.API
}

func (l *loopAPI) Poll(start int, regs []smmem.Reg, hit func(int, types.Payload) bool, then func()) {
	var found, more bool
	var from func(i int)
	from = func(i int) {
		l.API.Scan(regs[i:i+1], func(_ int, p types.Payload, ok bool) {
			if found = ok; ok {
				more = hit(i, p)
			}
		}, func() {
			switch {
			case !found:
				from((i + 1) % len(regs))
			case more:
				from(i)
			case then != nil:
				then()
			}
		})
	}
	from(start)
}

func (l *loopAPI) Scan(regs []smmem.Reg, visit func(int, types.Payload, bool), then func()) {
	var from func(i int)
	from = func(i int) {
		if i == len(regs) {
			if then != nil {
				then()
			}
			return
		}
		l.API.Scan(regs[i:i+1], func(_ int, p types.Payload, ok bool) { visit(i, p, ok) }, func() { from(i + 1) })
	}
	if len(regs) == 0 {
		l.API.Scan(nil, nil, then)
		return
	}
	from(0)
}

// What a process's handler does with a hit, after counting it (pollPlan).
const (
	// Move the channel to its next register and go on, as SIMULATION does.
	goOn = iota
	// Move the channel on and end the poll; the process then writes its
	// next bc/ register and polls again from the channel after the one that
	// hit.
	stopAndWrite
	// Go on without moving the channel on every other hit, so the poll reads
	// the register it just found again.
	rereadEveryOther
	pollModes
)

// How a process names its poll's registers (pollPlan.names). Either way the
// poll reads Reg{peer, "bc/", i}, and a hit moves the channel on by its
// Index.
const (
	// Every Reg's Name is the one string "bc/".
	shared = iota
	// Every hit, after moving its own channel on, gives the next channel's
	// Reg a Name built anew: the same register under an equal Name at
	// another address, which the poll compares in full.
	byTurns
	nameForms
)

// pollPlan is one set-up of the native poll protocol. Process p performs
// gaps[p][w] reads of its own unwritten register before it writes bc/w, so
// the writes land at planned operations. It then polls every peer's next
// bc/ register, handling hits as mode[p] says, and decides the smallest
// value seen after need[p] hits — inside the handler, or before its first
// poll if need[p] is 0. On every hit its handler first writes the smallest
// value seen to its next hitWrites[p] bc/ registers. Every third process
// ends its poll when it decides there, and returns. names[p] says how p
// names the registers it polls.
type pollPlan struct {
	gaps      [][]int
	need      []int
	mode      []int
	hitWrites []int
	names     []int
}

func seededPollPlan(n int, seed uint64) pollPlan {
	rng := prng.New(seed ^ 0x9011)
	plan := pollPlan{gaps: make([][]int, n), need: make([]int, n), mode: make([]int, n), hitWrites: make([]int, n), names: make([]int, n)}
	for p := range plan.gaps {
		plan.gaps[p] = make([]int, 1+rng.Intn(3))
		for w := range plan.gaps[p] {
			plan.gaps[p][w] = rng.Intn(4)
		}
		plan.need[p] = rng.Intn(2 * n)
		plan.mode[p] = rng.Intn(pollModes)
		plan.hitWrites[p] = rng.Intn(3)
	}
	names := prng.New(seed ^ 0x4a3e)
	for p := range plan.names {
		plan.names[p] = names.Intn(nameForms)
	}
	return plan
}

func (pl pollPlan) factory(spell spelling) func(types.ProcessID) smmem.Protocol {
	return func(id types.ProcessID) smmem.Protocol {
		return runFunc(func(api smmem.API) {
			api = spell(api)
			var regs []smmem.Reg
			for q := 0; q < api.N(); q++ {
				if peer := types.ProcessID(q); peer != id {
					regs = append(regs, smmem.Reg{Owner: peer, Name: "bc/"})
				}
			}
			w, hits, minV, done, c := 0, 0, api.Input(), false, 0
			hit := func(i int, p types.Payload) bool {
				c = i
				if hits++; p.Value < minV {
					minV = p.Value
				}
				for j := 0; j < pl.hitWrites[id]; j++ {
					api.Write("bc/", w, types.Payload{Kind: types.KindEcho, Value: minV})
					w++
				}
				if hits == pl.need[id] {
					api.Decide(minV)
					if done = id%3 == 1; done {
						return false
					}
				}
				if pl.mode[id] == rereadEveryOther && hits%2 == 1 {
					return true
				}
				regs[i].Index++
				if j := (i + 1) % len(regs); pl.names[id] == byTurns {
					regs[j].Name = strings.Clone("bc/")
				}
				return pl.mode[id] != stopAndWrite
			}
			var polled func()
			polled = func() {
				if done {
					return
				}
				api.WriteValue("bc/", w, minV)
				w++
				c = (c + 1) % len(regs)
				api.Poll(c, regs, hit, polled)
			}
			var write func()
			write = func() {
				if w == len(pl.gaps[id]) {
					if pl.need[id] == 0 {
						api.Decide(minV)
					}
					api.Poll(c, regs, hit, polled)
					return
				}
				reads(api, smmem.Reg{Owner: id, Name: "unwritten"}, pl.gaps[id][w], func() {
					api.WriteValue("bc/", w, api.Input()+types.Value(w))
					w++
					after(api, write)
				})
			}
			write()
		})
	}
}

// pollConfig is one run of the plan without its poll spelling; faults is an
// index into the matrix's faultModes.
func pollConfig(n int, seed uint64, plan pollPlan, fault int) func(spelling) smmem.Config {
	return func(spell spelling) smmem.Config {
		cfg := smmem.Config{
			N: n, T: (n - 1) / 2, K: n/2 + 1,
			Inputs:      testInputs(n, seed),
			NewProtocol: plan.factory(spell),
			Seed:        seed,
			MaxOps:      150 * n,
		}
		faultModes[fault].apply(&cfg, seed)
		return cfg
	}
}

// scripted replays a recorded grant stream the way a trace replay does: an
// entry whose process is not pending is skipped, and past the end of the
// script the lowest pending id goes.
type scripted struct {
	script []int
	cursor int
}

func (s *scripted) Next(_ *smmem.View, pending []types.ProcessID, _ *prng.Source) types.ProcessID {
	for s.cursor < len(s.script) {
		want := types.ProcessID(s.script[s.cursor])
		s.cursor++
		for _, p := range pending {
			if p == want {
				return want
			}
		}
	}
	return pending[0]
}

// streamDifference names the first thing that tells the two runs apart, or
// returns "".
func streamDifference(got, want *observed) string {
	if g, w := fmt.Sprintf("%+v", got.rec), fmt.Sprintf("%+v", want.rec); g != w || got.err != want.err {
		return fmt.Sprintf("record %s error %q, want %s error %q", g, got.err, w, want.err)
	}
	for i := 0; i < len(got.grants) || i < len(want.grants); i++ {
		if i >= len(got.grants) || i >= len(want.grants) || got.grants[i] != want.grants[i] {
			return fmt.Sprintf("recorder streams part at entry %d (%d and %d entries)", i, len(got.grants), len(want.grants))
		}
	}
	for i := 0; i < len(got.events) || i < len(want.events); i++ {
		if i >= len(got.events) || i >= len(want.events) || got.events[i] != want.events[i] {
			return fmt.Sprintf("trace streams part at event %d (%d and %d events)", i, len(got.events), len(want.events))
		}
	}
	return ""
}

// tally counts what the runs of a comparison exercised: the reads of
// registers named prefix+... that missed and that hit, and the writes made
// inside handlers, which the test protocols mark with KindEcho.
type tally struct {
	prefix                      string
	misses, hits, handlerWrites int
}

func (ty *tally) add(o *observed) {
	for _, ev := range o.events {
		switch {
		case ev.Type == smmem.EvWrite && ev.Payload.Kind == types.KindEcho:
			ty.handlerWrites++
		case ev.Type != smmem.EvRead || !strings.HasPrefix(ev.Register, ty.prefix):
		case ev.Present:
			ty.hits++
		default:
			ty.misses++
		}
	}
}

func (ty *tally) check(t *testing.T) {
	t.Helper()
	if ty.misses == 0 || ty.hits == 0 || ty.handlerWrites == 0 {
		t.Errorf("the matrix read %d misses and %d hits and wrote %d times in handlers, want all three", ty.misses, ty.hits, ty.handlerWrites)
	}
}

// compareSpellings runs both spellings of one configuration.
func compareSpellings(t *testing.T, cell string, build func(spelling) smmem.Config, ty *tally) {
	t.Helper()
	got, want := observe(build(native)), observe(build(readLoops))
	if d := streamDifference(got, want); d != "" {
		t.Errorf("%s: the API's call differs from its read loop: %s", cell, d)
	}
	ty.add(got)
}

// compareMatrix compares the spellings of config's runs for every n of ns,
// every fault mode, seeds 1–12 and every scheduler below, and replays each
// fair run's grants and crash points as recorded and cut in half.
func compareMatrix(t *testing.T, ns []int, config func(n int, seed uint64, fault int) func(spelling) smmem.Config, ty *tally) {
	t.Helper()
	held := func(from, to int) []types.ProcessID {
		var ids []types.ProcessID
		for p := from; p < to; p++ {
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
			h := smmem.NewHold(n, held(n/2, n), held(0, n/2))
			h.ReleaseAtOps = 50 * n
			return h
		}},
		{"starve", func(n int) smmem.Scheduler {
			s := smmem.NewStarve(n, 0, types.ProcessID(n-1))
			s.ReleaseAtOps = 40 * n
			return s
		}},
	}
	const seeds = 12
	for _, n := range ns {
		for fault := range faultModes {
			for seed := uint64(1); seed <= seeds; seed++ {
				build := config(n, seed, fault)
				for _, s := range schedulers {
					cell := fmt.Sprintf("%s %s n=%d seed=%d", s.name, faultModes[fault].name, n, seed)
					compareSpellings(t, cell, func(spell spelling) smmem.Config {
						cfg := build(spell)
						cfg.Scheduler = s.make(n)
						return cfg
					}, ty)
				}
				rec := &trace.Recorder{}
				cfg := build(native)
				rec.SM(&cfg)
				if _, err := smmem.Run(cfg); err != nil {
					t.Fatalf("n=%d seed=%d: %v", n, seed, err)
				}
				for _, cut := range []int{len(rec.Schedule), len(rec.Schedule) / 2} {
					cell := fmt.Sprintf("replay-%d/%d %s n=%d seed=%d", cut, len(rec.Schedule), faultModes[fault].name, n, seed)
					compareSpellings(t, cell, func(spell spelling) smmem.Config {
						cfg := build(spell)
						cfg.Scheduler = &scripted{script: rec.Schedule[:cut]}
						cfg.Crash = types.ScriptedCrashes(rec.Crashes)
						return cfg
					}, ty)
				}
			}
		}
	}
}

func TestPollMatchesReadLoop(t *testing.T) {
	ty := &tally{prefix: "bc/"}
	compareMatrix(t, []int{2, 3, 8}, func(n int, seed uint64, fault int) func(spelling) smmem.Config {
		return pollConfig(n, seed, seededPollPlan(n, seed), fault)
	}, ty)
	ty.check(t)
}

// FuzzPollMatchesReadLoop: the bytes choose n (2–6), every process's write
// points, decision threshold, handler, handler writes and register names,
// the scheduler and its seed, and crash points.
func FuzzPollMatchesReadLoop(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 7, 3, 1, 0, 9, 2, 200, 17, 5, 3, 4, 1, 8})
	f.Add([]byte{3, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%5
		plan := pollPlan{gaps: make([][]int, n), need: make([]int, n), mode: make([]int, n), hitWrites: make([]int, n), names: make([]int, n)}
		for p := range plan.gaps {
			plan.gaps[p] = make([]int, 1+next()%3)
			for w := range plan.gaps[p] {
				plan.gaps[p][w] = next() % 6
			}
			plan.need[p] = next() % (2 * n)
			plan.mode[p] = next() % pollModes
			plan.hitWrites[p] = next() % 3
			plan.names[p] = next() % nameForms
		}
		seed := uint64(next()<<8 | next())
		sched, slow := next()%4, types.ProcessID(next()%n)
		var crashes types.ScriptedCrashes
		for c := next() % n; c > 0; c-- {
			crashes = append(crashes, types.CrashPoint{Proc: types.ProcessID(next() % n), Kind: types.CrashAtOp, Index: next() % 20})
		}
		compareSpellings(t, fmt.Sprintf("n=%d seed=%d", n, seed), func(spell spelling) smmem.Config {
			cfg := smmem.Config{
				N: n, T: n - 1, K: n,
				Inputs:      testInputs(n, seed),
				NewProtocol: plan.factory(spell),
				Seed:        seed,
				MaxOps:      100 * n,
				Crash:       crashes,
			}
			switch sched {
			case 1:
				cfg.Scheduler = &smmem.RoundRobin{}
			case 2:
				s := smmem.NewStarve(n, slow)
				s.ReleaseAtOps = 30 * n
				cfg.Scheduler = s
			case 3:
				h := smmem.NewHold(n, []types.ProcessID{slow}, []types.ProcessID{(slow + 1) % types.ProcessID(n)})
				h.ReleaseAtOps = 50 * n
				cfg.Scheduler = h
			}
			return cfg
		}, &tally{})
	})
}

// scanPlan is one set-up of the native scan protocol. Process p writes s/0,
// then goes through rounds[p] rounds: gaps[p] reads of a register nobody
// writes, a scan of an empty list in the second round, and one scan of
// every process's s/<r> in round r with the unwritten register swapped in
// at index r. Its visitor keeps the smallest value found, decides it at the
// need[p]-th hit, and on every every[p]-th read, hit or miss, then writes it
// plus the read's index to p's next s/ register (never if every[p] is 0).
// A process that has not decided after its rounds decides then and returns.
// It names s/<r> Reg{q, "s/", r}, with a Name built anew for every Reg if
// fresh[p] and the one string "s/" otherwise.
type scanPlan struct {
	rounds, gaps, every, need []int
	fresh                     []bool
}

func seededScanPlan(n int, seed uint64) scanPlan {
	rng := prng.New(seed ^ 0x5ca7)
	plan := scanPlan{rounds: make([]int, n), gaps: make([]int, n), every: make([]int, n), need: make([]int, n), fresh: make([]bool, n)}
	for p := range plan.rounds {
		plan.rounds[p] = 1 + rng.Intn(4)
		plan.gaps[p] = rng.Intn(3)
		plan.every[p] = rng.Intn(4)
		plan.need[p] = rng.Intn(2 * n)
	}
	names := prng.New(seed ^ 0x4a3e)
	for p := range plan.fresh {
		plan.fresh[p] = names.Intn(2) == 1
	}
	return plan
}

func (pl scanPlan) factory(spell spelling) func(types.ProcessID) smmem.Protocol {
	return func(id types.ProcessID) smmem.Protocol {
		return runFunc(func(api smmem.API) {
			api = spell(api)
			n := api.N()
			api.WriteValue("s/", 0, api.Input())
			w, seen, hits, minV := 1, 0, 0, api.Input()
			visit := func(i int, p types.Payload, ok bool) {
				if ok {
					if hits++; p.Value < minV {
						minV = p.Value
					}
					if hits == pl.need[id] {
						api.Decide(minV)
					}
				}
				if seen++; pl.every[id] > 0 && seen%pl.every[id] == 0 {
					api.Write("s/", w, types.Payload{Kind: types.KindEcho, Value: minV + types.Value(i)})
					w++
				}
			}
			regs := make([]smmem.Reg, n+1)
			var round func(r int)
			round = func(r int) {
				if r == pl.rounds[id] {
					if !api.HasDecided() {
						api.Decide(minV)
					}
					return
				}
				scanRound := func() {
					for q := 0; q < n; q++ {
						regs[q] = smmem.Reg{Owner: types.ProcessID(q), Name: "s/", Index: r}
						if pl.fresh[id] {
							regs[q].Name = strings.Clone("s/")
						}
					}
					regs[n] = smmem.Reg{Owner: id, Name: "unwritten"}
					regs[n], regs[r%(n+1)] = regs[r%(n+1)], regs[n]
					api.Scan(regs, visit, func() { round(r + 1) })
				}
				reads(api, smmem.Reg{Owner: id, Name: "unwritten"}, pl.gaps[id], func() {
					if r == 1 {
						api.Scan(nil, visit, scanRound)
						return
					}
					scanRound()
				})
			}
			round(0)
		})
	}
}

func scanConfig(n int, seed uint64, plan scanPlan, fault int) func(spelling) smmem.Config {
	return func(spell spelling) smmem.Config {
		cfg := smmem.Config{
			N: n, T: (n - 1) / 2, K: n/2 + 1,
			Inputs:      testInputs(n, seed),
			NewProtocol: plan.factory(spell),
			Seed:        seed,
			MaxOps:      150 * n,
		}
		faultModes[fault].apply(&cfg, seed)
		return cfg
	}
}

func TestScanMatchesReadLoop(t *testing.T) {
	ty := &tally{prefix: "s/"}
	compareMatrix(t, []int{2, 3, 8}, func(n int, seed uint64, fault int) func(spelling) smmem.Config {
		return scanConfig(n, seed, seededScanPlan(n, seed), fault)
	}, ty)
	ty.check(t)
}

// FuzzScanMatchesReadLoop: the bytes choose n (2–6), every process's rounds,
// gaps, decision threshold, visitor writes and register names, the
// scheduler and its seed, and crash points.
func FuzzScanMatchesReadLoop(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 3, 1, 1, 0, 3, 2, 1, 2, 0, 2, 1, 2, 200, 17, 3, 1, 4, 1, 2})
	f.Add([]byte{3, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%5
		plan := scanPlan{rounds: make([]int, n), gaps: make([]int, n), every: make([]int, n), need: make([]int, n), fresh: make([]bool, n)}
		for p := range plan.rounds {
			plan.rounds[p] = 1 + next()%4
			plan.gaps[p] = next() % 3
			plan.every[p] = next() % 4
			plan.need[p] = next() % (2 * n)
			plan.fresh[p] = next()%2 == 1
		}
		seed := uint64(next()<<8 | next())
		sched, slow := next()%4, types.ProcessID(next()%n)
		var crashes types.ScriptedCrashes
		for c := next() % n; c > 0; c-- {
			crashes = append(crashes, types.CrashPoint{Proc: types.ProcessID(next() % n), Kind: types.CrashAtOp, Index: next() % 20})
		}
		compareSpellings(t, fmt.Sprintf("n=%d seed=%d", n, seed), func(spell spelling) smmem.Config {
			cfg := smmem.Config{
				N: n, T: n - 1, K: n,
				Inputs:      testInputs(n, seed),
				NewProtocol: plan.factory(spell),
				Seed:        seed,
				MaxOps:      100 * n,
				Crash:       crashes,
			}
			switch sched {
			case 1:
				cfg.Scheduler = &smmem.RoundRobin{}
			case 2:
				s := smmem.NewStarve(n, slow)
				s.ReleaseAtOps = 30 * n
				cfg.Scheduler = s
			case 3:
				h := smmem.NewHold(n, []types.ProcessID{slow}, []types.ProcessID{(slow + 1) % types.ProcessID(n)})
				h.ReleaseAtOps = 50 * n
				cfg.Scheduler = h
			}
			return cfg
		}, &tally{})
	})
}

// TestPollEdges pins the index a poll hands its handler and the operations
// it performs at the ends of its list, where a handler's writes go, and its
// panics; and the same for a scan. Process p1 writes a at its second
// operation (after a read of x, which nobody writes), then b, and decides;
// p2 reads x early times, polls once — its handler goes on again times, so
// the poll reads the register it found again unless move changes the list,
// then ends it — or scans once, and decides what it found last unless it has
// decided. Under round-robin p2 goes first: p2, p1, p2, p1, p2, p1, then p2
// alone. A handler that polls or scans panics out of Run, as does a second
// call in the step that posts p2's poll or scan.
func TestPollEdges(t *testing.T) {
	cases := []struct {
		name  string
		scan  bool // p2 scans its list instead of polling it
		start int
		regs  []string // p1's registers, polled by p2
		early int      // p2's reads of x before it polls
		again int      // hits p2's handler goes on after
		move  func(regs []smmem.Reg)
		inHit func(api smmem.API) // on every hit
		// In the step that posts p2's poll or scan, right after it.
		inStep func(api smmem.API)
		// p2 crashes before its crashAt-th operation, or the run stops
		// after maxOps; 0 for neither.
		crashAt, maxOps int

		wantIndex int    // of the last hit, -1 for none
		wantOps   string // all of p2's operations: "name" a read that missed, "name+" a hit, "=name" a write
		// Operations granted when p2's decision reached the board; 0 for
		// not pinned.
		wantDecidedAt int
		wantPanic     string
	}{
		{name: "start-at-last-wraps", start: 2, regs: []string{"a", "x", "y"},
			wantIndex: 0, wantOps: "y a x y a+"},
		{name: "one-register", start: 0, regs: []string{"a"},
			wantIndex: 0, wantOps: "a a a+"},
		{name: "hit-on-first-read", start: 1, regs: []string{"x", "a"}, early: 2,
			wantIndex: 1, wantOps: "x x a+"},
		{name: "empty-list", start: 0, regs: nil,
			wantPanic: "Poll from index 0 of 0 registers"},
		{name: "start-past-the-end", start: 2, regs: []string{"a", "x"},
			wantPanic: "Poll from index 2 of 2 registers"},
		{name: "negative-start", start: -1, regs: []string{"a"},
			wantPanic: "Poll from index -1 of 1 registers"},
		{name: "go-on-reads-the-hit-again", start: 0, regs: []string{"x", "a"}, again: 2,
			wantIndex: 1, wantOps: "x a x a+ a+ a+"},
		// After x x x x every write is done; y and z miss, then a hit
		// points the list at z and b: one miss more would have missed on
		// every register, but the list changed, so b is still read.
		{name: "go-on-after-changing-the-list", start: 0, regs: []string{"x", "y", "a"}, early: 3, again: 1,
			move:      func(regs []smmem.Reg) { regs[0].Name, regs[2].Name = "b", "z" },
			wantIndex: 0, wantOps: "x x x x y a+ z b+"},
		// A handler's writes are p2's next operations, before the poll's
		// next read, also while p1 still runs.
		{name: "write-in-handler", start: 0, regs: []string{"a"}, again: 1,
			inHit:     func(api smmem.API) { api.WriteValue("w", 0, 1); api.WriteValue("v", 0, 2) },
			wantIndex: 0, wantOps: "a a a+ =w =v a+ =w =v"},
		{name: "write-in-handler-then-end", start: 0, regs: []string{"a"},
			inHit:     func(api smmem.API) { api.WriteValue("w", 0, 1); api.WriteValue("v", 0, 2) },
			wantIndex: 0, wantOps: "a a a+ =w =v"},
		// The step's writes go before the poll's first read.
		{name: "write-in-the-polling-step", start: 0, regs: []string{"a"},
			inStep:    func(api smmem.API) { api.WriteValue("w", 0, 1) },
			wantIndex: 0, wantOps: "=w a a+"},
		{name: "poll-in-handler", start: 0, regs: []string{"a"},
			inHit: func(api smmem.API) {
				api.Poll(0, []smmem.Reg{{Owner: 0, Name: "a"}}, func(int, types.Payload) bool { return false }, nil)
			},
			wantPanic: "smmem: Poll while a Poll is in progress"},
		{name: "scan-in-handler", start: 0, regs: []string{"a"},
			inHit: func(api smmem.API) {
				api.Scan([]smmem.Reg{{Owner: 0, Name: "a"}}, func(int, types.Payload, bool) {}, nil)
			},
			wantPanic: "smmem: Scan while a Poll is in progress"},
		{name: "scan-in-visit", scan: true, regs: []string{"a"}, early: 2,
			inHit:     func(api smmem.API) { api.Scan(nil, nil, nil) },
			wantPanic: "smmem: Scan while a Scan is in progress"},
		{name: "poll-in-visit", scan: true, regs: []string{"a"}, early: 2,
			inHit: func(api smmem.API) {
				api.Poll(0, []smmem.Reg{{Owner: 0, Name: "a"}}, func(int, types.Payload) bool { return false }, nil)
			},
			wantPanic: "smmem: Poll while a Scan is in progress"},
		{name: "scan-after-a-poll-in-one-step", start: 0, regs: []string{"a"},
			inStep:    func(api smmem.API) { api.Scan(nil, nil, nil) },
			wantPanic: "smmem: Scan while a Poll is in progress"},
		{name: "poll-after-a-scan-in-one-step", scan: true, regs: []string{"a"},
			inStep: func(api smmem.API) {
				api.Poll(0, []smmem.Reg{{Owner: 0, Name: "a"}}, func(int, types.Payload) bool { return false }, nil)
			},
			wantPanic: "smmem: Poll while a Scan is in progress"},
		// A scan of nothing is no operation: p2 decides at once.
		{name: "scan-empty-list", scan: true, regs: nil,
			wantIndex: -1, wantOps: ""},
		// Its then runs after the writes of the step that posted it: p2's
		// decision reaches the board after the write, the first operation.
		{name: "scan-empty-list-after-writes", scan: true, regs: nil,
			inStep:    func(api smmem.API) { api.WriteValue("w", 0, 1) },
			wantIndex: -1, wantOps: "=w", wantDecidedAt: 1},
		{name: "scan-one-register", scan: true, regs: []string{"a"}, early: 2,
			wantIndex: 0, wantOps: "x x a+"},
		{name: "scan-reads-each-once", scan: true, regs: []string{"x", "a", "y", "b"}, early: 2,
			wantIndex: 3, wantOps: "x x x a+ y b+"},
		// Decided in the visit of a: on the board at that read's grant,
		// the fifth, so the run ends when p1 decides after the sixth. Were
		// it on the board only once the scan is over, p2 would read x and
		// y too and its decision show at the eighth.
		{name: "scan-decide-in-visit", scan: true, regs: []string{"a", "x", "y"}, early: 2,
			inHit:     func(api smmem.API) { api.Decide(7) },
			wantIndex: 0, wantOps: "x x a+", wantDecidedAt: 5},
		{name: "scan-write-in-visit", scan: true, regs: []string{"a", "x"}, early: 2,
			inHit:     func(api smmem.API) { api.WriteValue("w", 0, 1) },
			wantIndex: 0, wantOps: "x x a+ =w x"},
		{name: "scan-crash-mid-scan", scan: true, regs: []string{"a", "x", "y"}, early: 2, crashAt: 4,
			wantIndex: 0, wantOps: "x x a+ x"},
		{name: "scan-budget-ends-mid-scan", scan: true, regs: []string{"a", "x", "y"}, early: 2, maxOps: 6,
			wantIndex: 0, wantOps: "x x a+"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			index, value := -1, types.Payload{}
			var regs []smmem.Reg
			for _, name := range c.regs {
				regs = append(regs, smmem.Reg{Owner: 0, Name: name})
			}
			cfg := smmem.Config{
				N: 2, T: 1, K: 2,
				Inputs: []types.Value{7, 8},
				NewProtocol: func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						x := smmem.Reg{Name: "x"}
						if id == 0 {
							read(api, x, func(types.Payload, bool) {
								api.WriteValue("a", 0, 7)
								api.WriteValue("b", 0, 7)
								after(api, func() { api.Decide(7) })
							})
							return
						}
						found := func(i int, p types.Payload) {
							index, value = i, p
							if c.inHit != nil {
								c.inHit(api)
							}
						}
						decide := func() {
							if !api.HasDecided() {
								api.Decide(value.Value)
							}
						}
						again := c.again
						reads(api, x, c.early, func() {
							if c.scan {
								api.Scan(regs, func(i int, p types.Payload, ok bool) {
									if ok {
										found(i, p)
									}
								}, decide)
							} else {
								api.Poll(c.start, regs, func(i int, p types.Payload) bool {
									found(i, p)
									if again--; again < 0 {
										return false
									}
									if c.move != nil {
										c.move(regs)
									}
									return true
								}, decide)
							}
							if c.inStep != nil {
								c.inStep(api)
							}
						})
					})
				},
				Scheduler: &smmem.RoundRobin{},
				Seed:      1,
				MaxOps:    c.maxOps,
			}
			if c.crashAt > 0 {
				cfg.Crash = types.ScriptedCrashes{{Proc: 1, Kind: types.CrashAtOp, Index: c.crashAt}}
			}
			var ops []string
			cfg.Trace = func(ev smmem.TraceEvent) {
				switch {
				case ev.Proc != 1:
				case ev.Type == smmem.EvWrite:
					ops = append(ops, "="+ev.Register)
				case ev.Type != smmem.EvRead:
				case ev.Present:
					ops = append(ops, ev.Register+"+")
				default:
					ops = append(ops, ev.Register)
				}
			}
			var rec *types.RunRecord
			var err error
			r := func() (r any) {
				defer func() { r = recover() }()
				rec, err = smmem.Run(cfg)
				return nil
			}()
			if c.wantPanic != "" {
				if !strings.Contains(fmt.Sprint(r), c.wantPanic) {
					t.Fatalf("Run's caller recovered %v, want a panic naming %q", r, c.wantPanic)
				}
				return
			}
			if r != nil || err != nil {
				t.Fatal(r, err)
			}
			if got := strings.Join(ops, " "); index != c.wantIndex || (index >= 0 && value.Value != 7) || got != c.wantOps {
				t.Errorf("the last hit was %d, %d after operations %q; want %d, 7 after %q", index, value.Value, got, c.wantIndex, c.wantOps)
			}
			cut := c.crashAt > 0 || c.maxOps > 0
			switch {
			case rec.Decided[1] == cut:
				t.Errorf("p2 decided %v, want %v: %+v", rec.Decided[1], !cut, rec)
			case c.crashAt > 0 && !rec.Faulty[1], c.maxOps > 0 && !rec.BudgetExhausted:
				t.Errorf("the run did not end the way this case is about: %+v", rec)
			case c.wantDecidedAt > 0 && rec.DecidedAtEvent[1] != c.wantDecidedAt:
				t.Errorf("p2's decision reached the board at operation %d, want %d", rec.DecidedAtEvent[1], c.wantDecidedAt)
			}
		})
	}
}
