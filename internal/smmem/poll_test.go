package smmem_test

// API.Poll is specified as the loop of Reads it replaces, its handler called
// on every hit. The tests below run a native protocol twice, once polling
// with Poll and once with that loop written out, and require everything the
// run shows the outside — the record or error, the Recorder stream and the
// Trace stream — to be equal. The protocol's handlers go on, stop, read a
// register they found again, move a channel on and decide, each in both
// spellings.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/trace"
	"kset/internal/types"
)

// pollFunc is one spelling of a poll: API.Poll or readLoop.
type pollFunc func(api smmem.API, start int, regs []smmem.Reg, hit func(int, types.Payload) bool)

func apiPoll(api smmem.API, start int, regs []smmem.Reg, hit func(int, types.Payload) bool) {
	api.Poll(start, regs, hit)
}

// readLoop is Poll's contract written with Read: a miss moves to the next
// register, a hit goes to hit, which ends the poll or has it read regs[i]
// again.
func readLoop(api smmem.API, start int, regs []smmem.Reg, hit func(int, types.Payload) bool) {
	for i := start; ; {
		p, ok := api.Read(regs[i].Owner, regs[i].Name)
		switch {
		case !ok:
			i = (i + 1) % len(regs)
		case !hit(i, p):
			return
		}
	}
}

// What a process's handler does with a hit, after counting it (pollPlan).
const (
	// Move the channel to its next register and go on, as SIMULATION does
	// when the message it delivered sends nothing.
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

// pollPlan is one set-up of the native poll protocol. Process p performs
// gaps[p][w] reads of its own unwritten register before it writes bc/w, so
// the writes land at planned operations. It then polls every peer's next
// bc/ register, handling hits as mode[p] says, and decides the smallest
// value seen after need[p] hits — inside the handler, or before its first
// poll if need[p] is 0. Every third process then ends its poll and returns.
type pollPlan struct {
	gaps [][]int
	need []int
	mode []int
}

func seededPollPlan(n int, seed uint64) pollPlan {
	rng := prng.New(seed ^ 0x9011)
	plan := pollPlan{gaps: make([][]int, n), need: make([]int, n), mode: make([]int, n)}
	for p := range plan.gaps {
		plan.gaps[p] = make([]int, 1+rng.Intn(3))
		for w := range plan.gaps[p] {
			plan.gaps[p][w] = rng.Intn(4)
		}
		plan.need[p] = rng.Intn(2 * n)
		plan.mode[p] = rng.Intn(pollModes)
	}
	return plan
}

func (pl pollPlan) factory(poll pollFunc) func(types.ProcessID) smmem.Protocol {
	return func(id types.ProcessID) smmem.Protocol {
		return runFunc(func(api smmem.API) {
			w := 0
			for ; w < len(pl.gaps[id]); w++ {
				for i := 0; i < pl.gaps[id][w]; i++ {
					_, _ = api.Read(id, "unwritten")
				}
				api.WriteValue("bc/"+strconv.Itoa(w), api.Input()+types.Value(w))
			}
			var regs []smmem.Reg
			for q := 0; q < api.N(); q++ {
				if peer := types.ProcessID(q); peer != id {
					regs = append(regs, smmem.Reg{Owner: peer, Name: "bc/0"})
				}
			}
			cursor := make([]int, len(regs))
			hits, minV, done, c := 0, api.Input(), false, 0
			if pl.need[id] == 0 {
				api.Decide(minV)
			}
			hit := func(i int, p types.Payload) bool {
				c = i
				if hits++; p.Value < minV {
					minV = p.Value
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
				cursor[i]++
				regs[i].Name = "bc/" + strconv.Itoa(cursor[i])
				return pl.mode[id] != stopAndWrite
			}
			for {
				poll(api, c, regs, hit)
				if done {
					return
				}
				api.WriteValue("bc/"+strconv.Itoa(w), minV)
				w++
				c = (c + 1) % len(regs)
			}
		})
	}
}

// pollConfig is one run of the plan without its poll spelling; faults is an
// index into the matrix's faultModes.
func pollConfig(n int, seed uint64, plan pollPlan, fault int) func(pollFunc) smmem.Config {
	return func(poll pollFunc) smmem.Config {
		cfg := smmem.Config{
			N: n, T: (n - 1) / 2, K: n/2 + 1,
			Inputs:      testInputs(n, seed),
			NewProtocol: plan.factory(poll),
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

// pollTally counts the poll reads of a run that missed and that hit, so a
// test can tell that it exercised both.
type pollTally struct{ misses, hits int }

func (pt *pollTally) add(o *observed) {
	for _, ev := range o.events {
		if ev.Type == smmem.EvRead && strings.HasPrefix(ev.Register, "bc/") {
			if ev.Present {
				pt.hits++
			} else {
				pt.misses++
			}
		}
	}
}

// comparePoll runs both spellings of one configuration.
func comparePoll(t *testing.T, cell string, build func(pollFunc) smmem.Config, tally *pollTally) {
	t.Helper()
	got, want := observe(build(apiPoll)), observe(build(readLoop))
	if d := streamDifference(got, want); d != "" {
		t.Errorf("%s: Poll differs from its Read loop: %s", cell, d)
	}
	tally.add(got)
}

func TestPollMatchesReadLoop(t *testing.T) {
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
	var tally pollTally
	for _, n := range []int{2, 3, 8} {
		for fault := range faultModes {
			for seed := uint64(1); seed <= seeds; seed++ {
				build := pollConfig(n, seed, seededPollPlan(n, seed), fault)
				for _, s := range schedulers {
					cell := fmt.Sprintf("%s %s n=%d seed=%d", s.name, faultModes[fault].name, n, seed)
					comparePoll(t, cell, func(poll pollFunc) smmem.Config {
						cfg := build(poll)
						cfg.Scheduler = s.make(n)
						return cfg
					}, &tally)
				}
				// Replay: record the fair run, then replay its grants and
				// crash points as recorded and cut in half.
				rec := &trace.SMRecorder{}
				cfg := build(apiPoll)
				cfg.Recorder = rec
				if _, err := smmem.Run(cfg); err != nil {
					t.Fatalf("n=%d seed=%d: %v", n, seed, err)
				}
				for _, cut := range []int{len(rec.Schedule), len(rec.Schedule) / 2} {
					cell := fmt.Sprintf("replay-%d/%d %s n=%d seed=%d", cut, len(rec.Schedule), faultModes[fault].name, n, seed)
					comparePoll(t, cell, func(poll pollFunc) smmem.Config {
						cfg := build(poll)
						cfg.Scheduler = &scripted{script: rec.Schedule[:cut]}
						crashes := &smmem.ScriptedCrashes{AtOp: map[types.ProcessID]int{}}
						for _, c := range rec.Crashes {
							crashes.AtOp[c.Proc] = c.Index
						}
						cfg.Crash = crashes
						return cfg
					}, &tally)
				}
			}
		}
	}
	if tally.misses == 0 || tally.hits == 0 {
		t.Errorf("the matrix polled %d misses and %d hits, want both", tally.misses, tally.hits)
	}
}

// FuzzPollMatchesReadLoop: the bytes choose n (2–6), every process's write
// points, decision threshold and handler, the scheduler and its seed, and
// crash points.
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
		plan := pollPlan{gaps: make([][]int, n), need: make([]int, n), mode: make([]int, n)}
		for p := range plan.gaps {
			plan.gaps[p] = make([]int, 1+next()%3)
			for w := range plan.gaps[p] {
				plan.gaps[p][w] = next() % 6
			}
			plan.need[p] = next() % (2 * n)
			plan.mode[p] = next() % pollModes
		}
		seed := uint64(next()<<8 | next())
		sched, slow := next()%4, types.ProcessID(next()%n)
		crashes := map[types.ProcessID]int{}
		for c := next() % n; c > 0; c-- {
			crashes[types.ProcessID(next()%n)] = next() % 20
		}
		tally := &pollTally{}
		comparePoll(t, fmt.Sprintf("n=%d seed=%d", n, seed), func(poll pollFunc) smmem.Config {
			cfg := smmem.Config{
				N: n, T: n - 1, K: n,
				Inputs:      testInputs(n, seed),
				NewProtocol: plan.factory(poll),
				Seed:        seed,
				MaxOps:      100 * n,
				Crash:       &smmem.ScriptedCrashes{AtOp: crashes},
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
		}, tally)
	})
}

// TestPollEdges pins the index a poll hands its handler and the reads it
// performs at the ends of its list, and its panics. Process p1 writes a at
// its second operation (after a read of x, which nobody writes), then b, and
// decides; p2 reads x early times, polls once — its handler goes on again
// times, so the poll reads the register it found again unless move changes
// the list, then ends it — and decides what it found. Under round-robin p2
// goes first: p2, p1, p2, p1, p2, p1, then p2 alone. A handler that makes a
// memory operation panics out of Run.
func TestPollEdges(t *testing.T) {
	cases := []struct {
		name  string
		start int
		regs  []string // p1's registers, polled by p2
		early int      // p2's reads of x before it polls
		again int      // hits p2's handler goes on after
		move  func(regs []smmem.Reg)
		inHit func(api smmem.API)

		wantIndex int
		wantReads string // all of p2's reads, "name+" for a hit
		wantPanic string
	}{
		{name: "start-at-last-wraps", start: 2, regs: []string{"a", "x", "y"},
			wantIndex: 0, wantReads: "y a x y a+"},
		{name: "one-register", start: 0, regs: []string{"a"},
			wantIndex: 0, wantReads: "a a a+"},
		{name: "hit-on-first-read", start: 1, regs: []string{"x", "a"}, early: 2,
			wantIndex: 1, wantReads: "x x a+"},
		{name: "empty-list", start: 0, regs: nil,
			wantPanic: "Poll from index 0 of 0 registers"},
		{name: "start-past-the-end", start: 2, regs: []string{"a", "x"},
			wantPanic: "Poll from index 2 of 2 registers"},
		{name: "negative-start", start: -1, regs: []string{"a"},
			wantPanic: "Poll from index -1 of 1 registers"},
		{name: "go-on-reads-the-hit-again", start: 0, regs: []string{"x", "a"}, again: 2,
			wantIndex: 1, wantReads: "x a x a+ a+ a+"},
		// After x x x x every write is done; y and z miss, then a hit
		// points the list at z and b: one miss more would have missed on
		// every register, but the list changed, so b is still read.
		{name: "go-on-after-changing-the-list", start: 0, regs: []string{"x", "y", "a"}, early: 3, again: 1,
			move:      func(regs []smmem.Reg) { regs[0].Name, regs[2].Name = "b", "z" },
			wantIndex: 0, wantReads: "x x x x y a+ z b+"},
		{name: "read-in-handler", start: 0, regs: []string{"a"},
			inHit:     func(api smmem.API) { _, _ = api.Read(0, "a") },
			wantPanic: "smmem: Read inside a Poll handler"},
		{name: "readvalue-in-handler", start: 0, regs: []string{"a"},
			inHit:     func(api smmem.API) { _, _ = api.ReadValue(0, "x") },
			wantPanic: "smmem: Read inside a Poll handler"},
		{name: "write-in-handler", start: 0, regs: []string{"a"},
			inHit:     func(api smmem.API) { api.WriteValue("b", 1) },
			wantPanic: "smmem: Write inside a Poll handler"},
		{name: "poll-in-handler", start: 0, regs: []string{"a"},
			inHit: func(api smmem.API) {
				api.Poll(0, []smmem.Reg{{Owner: 0, Name: "a"}}, func(int, types.Payload) bool { return false })
			},
			wantPanic: "smmem: Poll inside a Poll handler"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			index, value := -1, types.Payload{}
			var regs []smmem.Reg
			for _, name := range c.regs {
				regs = append(regs, smmem.Reg{Owner: 0, Name: name})
			}
			cfg := smmem.Config{
				N: 2, T: 0, K: 2,
				Inputs: []types.Value{7, 8},
				NewProtocol: func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id == 0 {
							_, _ = api.Read(0, "x")
							api.WriteValue("a", 7)
							api.WriteValue("b", 7)
							api.Decide(7)
							return
						}
						for i := 0; i < c.early; i++ {
							_, _ = api.Read(0, "x")
						}
						again := c.again
						api.Poll(c.start, regs, func(i int, p types.Payload) bool {
							index, value = i, p
							if c.inHit != nil {
								c.inHit(api)
							}
							if again--; again < 0 {
								return false
							}
							if c.move != nil {
								c.move(regs)
							}
							return true
						})
						api.Decide(value.Value)
					})
				},
				Scheduler: &smmem.RoundRobin{},
				Seed:      1,
			}
			var reads []string
			cfg.Trace = func(ev smmem.TraceEvent) {
				switch {
				case ev.Type != smmem.EvRead || ev.Proc != 1:
				case ev.Present:
					reads = append(reads, ev.Register+"+")
				default:
					reads = append(reads, ev.Register)
				}
			}
			var rec *types.RunRecord
			r := func() (r any) {
				defer func() { r = recover() }()
				rec, _ = smmem.Run(cfg)
				return nil
			}()
			if c.wantPanic != "" {
				if !strings.Contains(fmt.Sprint(r), c.wantPanic) {
					t.Fatalf("Run's caller recovered %v, want a panic naming %q", r, c.wantPanic)
				}
				return
			}
			if r != nil {
				t.Fatal(r)
			}
			if got := strings.Join(reads, " "); index != c.wantIndex || value.Value != 7 || got != c.wantReads {
				t.Errorf("Poll's last hit was %d, %d after reads %q; want %d, 7 after %q", index, value.Value, got, c.wantIndex, c.wantReads)
			}
			if !rec.Decided[1] {
				t.Errorf("p2 did not decide: %+v", rec)
			}
		})
	}
}
