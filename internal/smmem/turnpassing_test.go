package smmem_test

// Identity tests for the runtime's scheduling: a run is reduced to everything
// it lets anyone observe — the record (or the error), the Recorder's grant and
// crash stream, and the Trace event stream — and folded into one FNV-64a per
// cell of the matrix below. The tables under testdata/ were computed on the
// turn-passing runtime of PR 19, when it still agreed entry for entry with
// the central scheduler before it, so a grant that goes to a different
// process, an adversary or scheduler consulted once more or once less or with
// a different view, or a decision stamped at a different operation count
// changes the hash of the cell whose set-up produced it.
//
// KSET_REGEN_STREAMS=1 rewrites the tables instead of comparing: a deliberate
// act after a change that is meant to alter schedules, never a fix for a
// failing comparison.

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
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

func observe(cfg smmem.Config) *observed { return observeOn(smmem.Run, cfg) }

// observeOn observes the run cfg describes as run performs it.
func observeOn(run func(smmem.Config) (*types.RunRecord, error), cfg smmem.Config) *observed {
	o := &observed{}
	cfg.Recorder = o
	cfg.Trace = func(ev smmem.TraceEvent) { o.events = append(o.events, ev) }
	rec, err := run(cfg)
	if rec != nil {
		rec = rec.Clone() // a Runner's record is valid until its next run
	}
	o.rec = rec
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// fold writes the run into h, every field of every event included.
func (o *observed) fold(h hash.Hash64) {
	if o.rec != nil {
		fmt.Fprintf(h, "record %+v\n", *o.rec)
	}
	fmt.Fprintf(h, "error %q\n", o.err)
	for _, g := range o.grants {
		fmt.Fprintln(h, g)
	}
	for _, ev := range o.events {
		fmt.Fprintf(h, "%#v\n", ev)
	}
}

// streamTable collects one hash per cell and compares the lot with a table
// under testdata/ (or rewrites the table, see the file comment).
type streamTable struct {
	file  string
	cells []string // "cell\thash", in the order the test visits them
}

// add folds the runs of one cell, seeds 1..seeds, into its line of the table.
func (st *streamTable) add(cell string, seeds uint64, run func(seed uint64) *observed) {
	h := fnv.New64a()
	for seed := uint64(1); seed <= seeds; seed++ {
		run(seed).fold(h)
	}
	st.cells = append(st.cells, fmt.Sprintf("%s\t%016x", cell, h.Sum64()))
}

// check compares with the committed table. complete says the test visited
// every cell, so a line of the table it did not produce is stale.
func (st *streamTable) check(t *testing.T, complete bool) {
	t.Helper()
	path := filepath.Join("testdata", st.file)
	if os.Getenv("KSET_REGEN_STREAMS") == "1" {
		if !complete {
			t.Fatal("KSET_REGEN_STREAMS=1 needs the whole matrix: run without -short")
		}
		if err := os.WriteFile(path, []byte(strings.Join(st.cells, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(st.cells), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		cell, sum, _ := strings.Cut(line, "\t")
		want[cell] = sum
	}
	for _, line := range st.cells {
		cell, sum, _ := strings.Cut(line, "\t")
		switch w, ok := want[cell]; {
		case !ok:
			t.Errorf("%s: cell %q is not in the table", path, cell)
		case w != sum:
			t.Errorf("%s: record, recorder or trace stream changed: hash %s, table %s", cell, sum, w)
		}
	}
	if complete && len(want) != len(st.cells) {
		t.Errorf("%s has %d cells, the test visited %d", path, len(want), len(st.cells))
	}
}

// runFunc is a protocol whose Start is the function.
type runFunc func(smmem.API)

func (f runFunc) Start(api smmem.API) { f(api) }

// read reads r, as a Scan of r alone, and hands then what it found.
func read(api smmem.API, r smmem.Reg, then func(p types.Payload, ok bool)) {
	var p types.Payload
	var ok bool
	api.Scan([]smmem.Reg{r}, func(_ int, q types.Payload, found bool) { p, ok = q, found }, func() { then(p, ok) })
}

// reads reads r count times, then runs then.
func reads(api smmem.API, r smmem.Reg, count int, then func()) {
	if count == 0 {
		then()
		return
	}
	read(api, r, func(types.Payload, bool) { reads(api, r, count-1, then) })
}

// spin reads r for ever.
func spin(api smmem.API, r smmem.Reg) {
	read(api, r, func(types.Payload, bool) { spin(api, r) })
}

// after runs then once the step's writes are granted, as the then of an
// empty Scan.
func after(api smmem.API, then func()) { api.Scan(nil, nil, then) }

// scan is a small native protocol: write the input, scan everyone's
// register until quorum of them are written, decide the minimum seen.
func scan(api smmem.API, quorum int) { scanMin(api, quorum, api.Decide) }

// scanMin writes the input and scans everyone's register until quorum of
// them are written, then hands then the minimum seen.
func scanMin(api smmem.API, quorum int, then func(types.Value)) {
	api.WriteValue("v", 0, api.Input())
	regs := make([]smmem.Reg, api.N())
	for q := range regs {
		regs[q] = smmem.Reg{Owner: types.ProcessID(q), Name: "v"}
	}
	var minV types.Value
	count := 0
	visit := func(_ int, p types.Payload, ok bool) {
		if ok {
			if count == 0 || p.Value < minV {
				minV = p.Value
			}
			count++
		}
	}
	var scanned func()
	scanned = func() {
		if count >= quorum {
			then(minV)
			return
		}
		count = 0
		api.Scan(regs, visit, scanned)
	}
	api.Scan(regs, visit, scanned)
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
		cfg.Crash = smmem.NewRandomCrashes(0.02, seed+1)
		return nil
	}},
	{"garbage-writer", func(cfg *smmem.Config, seed uint64) []trace.ByzSpec {
		if cfg.T == 0 {
			return nil
		}
		p := types.ProcessID(int(seed) % cfg.N)
		cfg.Byzantine = map[types.ProcessID]smmem.Protocol{p: adversary.NewGarbageWriter(24)}
		// One more fault is left in the budget for n >= 8: crash too.
		cfg.Crash = smmem.NewRandomCrashes(0.01, seed+2)
		return []trace.ByzSpec{{Proc: p, Kind: trace.ByzGarbageWriter, Rounds: 24}}
	}},
}

// Witness protocols of the matrix, by seed: the two native ones and
// SIMULATION, whose pollers never end and are stopped by the runtime.
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

// Schedulers of the matrix. Each builds its policy afresh per call.
var matrixSchedulers = []struct {
	name string
	make func(n int) smmem.Scheduler
}{
	{"fair-random", func(int) smmem.Scheduler { return smmem.FairRandom{} }},
	{"round-robin", func(int) smmem.Scheduler { return &smmem.RoundRobin{} }},
	{"hold", func(n int) smmem.Scheduler {
		h := smmem.NewHold(n, idRange(n/2, n), idRange(0, n/2))
		h.ReleaseAtOps = 100 * n
		return h
	}},
	{"hold-all", func(n int) smmem.Scheduler {
		// Everyone held, nobody watched... until the gate's own
		// fallback releases one at a time.
		return smmem.NewHold(n, idRange(0, n), idRange(0, 1))
	}},
	{"starve", func(n int) smmem.Scheduler {
		s := smmem.NewStarve(n, 0, types.ProcessID(n-1))
		s.ReleaseAtOps = 60 * n
		return s
	}},
}

// idRange lists the ids from, ..., to-1.
func idRange(from, to int) []types.ProcessID {
	var ids []types.ProcessID
	for p := from; p < to; p++ {
		ids = append(ids, types.ProcessID(p))
	}
	return ids
}

func TestTurnPassingMatchesReference(t *testing.T) {
	// The replay scheduler: capture the fair run, then replay its schedule as
	// recorded and damaged the ways the shrinker damages it (cut short,
	// entries dropped), which walks smReplay's skip and lowest-pending
	// fallbacks.
	damage := []struct {
		name  string
		apply func(full []int) []int
	}{
		{"recorded", func(full []int) []int { return full }},
		{"cut", func(full []int) []int { return full[:len(full)/2] }},
		{"thinned", func(full []int) []int {
			thinned := make([]int, 0, len(full))
			for i, p := range full {
				if i%5 != 3 {
					thinned = append(thinned, p)
				}
			}
			return thinned
		}},
	}
	const seeds = 20
	ns := []int{1, 3, 8, 16}
	if testing.Short() {
		ns = []int{1, 3, 8}
	}
	table := &streamTable{file: "streams_matrix.golden"}
	for _, n := range ns {
		for fault := range faultModes {
			for _, s := range matrixSchedulers {
				cell := fmt.Sprintf("%s %s n=%d", s.name, faultModes[fault].name, n)
				table.add(cell, seeds, func(seed uint64) *observed {
					cfg, _, _ := matrixConfig(t, n, seed, fault)
					cfg.Scheduler = s.make(n)
					return observe(cfg)
				})
			}
			for _, d := range damage {
				cell := fmt.Sprintf("replay-%s %s n=%d", d.name, faultModes[fault].name, n)
				table.add(cell, seeds, func(seed uint64) *observed {
					cfg, spec, byz := matrixConfig(t, n, seed, fault)
					captured, _, err := trace.CaptureSM(cfg, types.RV2, spec, byz)
					if err != nil {
						t.Fatalf("%s seed=%d: capture: %v", cell, seed, err)
					}
					captured.Schedule = d.apply(captured.Schedule)
					replay, err := trace.BuildSMConfig(captured)
					if err != nil {
						t.Fatalf("%s seed=%d: %v", cell, seed, err)
					}
					return observe(replay)
				})
			}
		}
	}
	table.check(t, !testing.Short())
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
// protocol under a well-behaved scheduler never takes. Each edge is written
// out for three processes with inputs 3, 1, 2 under round-robin and no
// crashes (a custom scheduler where the edge is the scheduler; processes print
// one-based, so id 0 is p1), and swept
// over n, seeds, fair-random and round-robin with random crashes against
// streams_edges.golden.
func TestTurnPassingMatchesReferenceEdges(t *testing.T) {
	edges := []struct {
		name   string
		proto  func(n int) func(types.ProcessID) smmem.Protocol
		sched  func() smmem.Scheduler // nil: round-robin (and fair-random in the sweep)
		maxOps int
		minN   int // smallest n at which the edge exists

		// Expected at n = 3: the error, or the record's columns and the
		// granted process of every operation in order.
		wantErr   error
		decided   []bool
		decisions []types.Value
		decidedAt []int
		grants    string
		exhausted bool
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
			// p1 is never a candidate; p2 writes, reads p1's absent register
			// and its own, decides; p3 one operation behind.
			decided:   []bool{false, true, true},
			decisions: []types.Value{0, 1, 1},
			decidedAt: []int{-1, 7, 8},
			grants:    "p2 p3 p2 p3 p2 p3 p2 p3",
		},
		{
			name: "everyone-returns-at-once",
			proto: func(int) func(types.ProcessID) smmem.Protocol {
				return func(types.ProcessID) smmem.Protocol { return runFunc(func(smmem.API) {}) }
			},
			decided:   []bool{false, false, false},
			decisions: []types.Value{0, 0, 0},
			decidedAt: []int{-1, -1, -1},
			grants:    "",
		},
		{
			name: "decides-before-its-first-operation",
			proto: func(n int) func(types.ProcessID) smmem.Protocol {
				return func(id types.ProcessID) smmem.Protocol {
					return runFunc(func(api smmem.API) {
						if id%2 == 0 {
							api.Decide(api.Input())
							if id%4 != 0 {
								scanMin(api, (n+1)/2, func(types.Value) {})
							}
							return // for every fourth: decision and exit in one breath
						}
						scan(api, (n+1)/2)
					})
				}
			},
			// p1 and p3 are on the board before anything is granted; p2
			// needs two written registers and finds them on its first scan.
			decided:   []bool{true, true, true},
			decisions: []types.Value{3, 1, 2},
			decidedAt: []int{0, 7, 0},
			grants:    "p2 p3 p2 p3 p2 p3 p2",
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
							api.WriteValue("v", 0, api.Input())
							after(api, func() {
								api.Decide(1)
								// The exit, not a request, brings the bug in.
								read(api, smmem.Reg{Name: "v"}, func(types.Payload, bool) { api.Decide(2) })
							})
							return
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
					return runFunc(func(api smmem.API) { spin(api, smmem.Reg{Name: "v"}) })
				}
			},
			maxOps:    7,
			decided:   []bool{false, false, false},
			decisions: []types.Value{0, 0, 0},
			decidedAt: []int{-1, -1, -1},
			grants:    "p2 p3 p1 p2 p3 p1 p2", // round-robin starts after id 0
			exhausted: true,
		},
	}

	config := func(e int, n int, seed uint64, sched smmem.Scheduler) smmem.Config {
		return smmem.Config{
			N: n, T: (n - 1) / 2, K: n,
			Inputs:      testInputs(n, seed),
			NewProtocol: edges[e].proto(n),
			Scheduler:   sched,
			Seed:        seed,
			MaxOps:      edges[e].maxOps,
		}
	}

	for e, edge := range edges {
		t.Run(edge.name, func(t *testing.T) {
			var sched smmem.Scheduler = &smmem.RoundRobin{}
			if edge.sched != nil {
				sched = edge.sched()
			}
			cfg := config(e, 3, 1, sched)
			cfg.Inputs = []types.Value{3, 1, 2}
			o := observe(cfg)
			if edge.wantErr != nil {
				if o.rec != nil || !strings.HasPrefix(o.err, edge.wantErr.Error()) {
					t.Fatalf("record %v, error %q, want no record and %v", o.rec, o.err, edge.wantErr)
				}
				return
			}
			if o.err != "" {
				t.Fatal(o.err)
			}
			if grants := strings.ReplaceAll(strings.Join(o.grants, " "), "grant ", ""); grants != edge.grants {
				t.Errorf("granted %q, want %q", grants, edge.grants)
			}
			rec := o.rec
			if fmt.Sprint(rec.Decided, rec.Decisions, rec.DecidedAtEvent) != fmt.Sprint(edge.decided, edge.decisions, edge.decidedAt) {
				t.Errorf("decided %v %v at %v, want %v %v at %v", rec.Decided, rec.Decisions, rec.DecidedAtEvent,
					edge.decided, edge.decisions, edge.decidedAt)
			}
			if rec.Events != len(o.grants) || rec.BudgetExhausted != edge.exhausted {
				t.Errorf("%d operations for %d grants, exhausted=%v, want exhausted=%v",
					rec.Events, len(o.grants), rec.BudgetExhausted, edge.exhausted)
			}
		})
	}

	table := &streamTable{file: "streams_edges.golden"}
	type namedSched struct {
		name string
		make func() smmem.Scheduler
	}
	sweep := []namedSched{
		{"fair-random", func() smmem.Scheduler { return smmem.FairRandom{} }},
		{"round-robin", func() smmem.Scheduler { return &smmem.RoundRobin{} }},
	}
	for e, edge := range edges {
		scheds := sweep
		if edge.sched != nil {
			scheds = []namedSched{{"custom", edge.sched}}
		}
		for _, sched := range scheds {
			for _, n := range []int{1, 3, 8, 16} {
				if n < edge.minN {
					continue
				}
				cell := fmt.Sprintf("%s %s n=%d", edge.name, sched.name, n)
				table.add(cell, 5, func(seed uint64) *observed {
					cfg := config(e, n, seed, sched.make())
					cfg.Crash = smmem.NewRandomCrashes(0.01, seed)
					return observe(cfg)
				})
			}
		}
	}
	table.check(t, true)
}
