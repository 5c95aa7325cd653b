package harness

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// arenaCell is one step of an arena's life: a witness cell validated through
// Arena.ValidateCell, or (sweep set) a hand-built sweep run on the arena.
type arenaCell struct {
	m       types.Model
	v       types.Validity
	n, k, t int
	sweep   func(a *Arena) *MPSweep
}

func (c arenaCell) String() string {
	if c.sweep != nil {
		return fmt.Sprintf("sweep on %v n=%d", c.m, c.n)
	}
	return fmt.Sprintf("%v/%v n=%d k=%d t=%d", c.m, c.v, c.n, c.k, c.t)
}

func (c arenaCell) run(a *Arena, seed uint64) (*Summary, error) {
	if c.sweep != nil {
		s := c.sweep(a)
		s.BaseSeed = seed
		return s.run(a), nil
	}
	return a.ValidateCell(c.m, c.v, c.n, c.k, c.t, theory.Classify(c.m, c.v, c.n, c.k, c.t), CellOpts{Runs: 6, Seed: seed})
}

// witnessCells finds, for every message-passing witness in MP/CR and in
// MP/Byz, a solvable cell it witnesses, taking n from ns in turn so that n
// changes from one cell to the next. A witness the classifier uses in one
// failure model only is found in that one; every witness is found somewhere.
func witnessCells(t *testing.T, ns []int) []arenaCell {
	t.Helper()
	type witness struct {
		proto theory.ProtocolID
		ell   int
	}
	find := func(m types.Model, w witness, n int) (arenaCell, bool) {
		for _, v := range types.AllValidities() {
			for k := 1; k <= n; k++ {
				for tt := 1; tt < n; tt++ {
					r := theory.Classify(m, v, n, k, tt)
					if r.Status == theory.Solvable && r.Proto == w.proto && r.EchoEll == w.ell {
						return arenaCell{m: m, v: v, n: n, k: k, t: tt}, true
					}
				}
			}
		}
		return arenaCell{}, false
	}
	var cells []arenaCell
	next := 0
	for _, w := range []witness{{theory.ProtoFloodMin, 0}, {theory.ProtoA, 0}, {theory.ProtoB, 0},
		{theory.ProtoC, 1}, {theory.ProtoC, 2}, {theory.ProtoD, 0}, {theory.ProtoTrivial, 0}} {
		found := false
		for _, m := range []types.Model{types.MPCR, types.MPByz} {
			for try := 0; try < len(ns); try++ {
				if c, ok := find(m, w, ns[(next+try)%len(ns)]); ok {
					cells = append(cells, c)
					next += try + 1
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("no cell at n in %v is witnessed by %v l=%d", ns, w.proto, w.ell)
		}
	}
	return cells
}

// TestArenaReuseMatchesFresh runs one Arena through a sequence of cells —
// every message-passing witness in both failure models with n changing,
// shared-memory cells (SIMULATION(FloodMin) at n = 8, 12 and 8 again, then
// Protocol E, each on the arena's instances), a sweep whose witness
// instances come from the arena and break agreement, and a sweep whose runs
// end in a protocol error — and requires of every cell the summary a fresh
// Arena computes: the witness instances, simulator tables and records,
// adversaries and buffers a cell leaves behind may not show in the next.
func TestArenaReuseMatchesFresh(t *testing.T) {
	cells := witnessCells(t, []int{6, 9, 7, 10, 8, 11, 12, 6, 10, 7, 9, 8, 12, 11})
	violating := arenaCell{m: types.MPCR, n: 7, sweep: func(a *Arena) *MPSweep { return trivialSweep(t, a, 0) }}
	failing := arenaCell{m: types.MPByz, n: 9, sweep: func(*Arena) *MPSweep {
		return &MPSweep{Name: "double decide", N: 9, K: 3, T: 2, Validity: types.RV1, Byzantine: true,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return doubleDecider{} }, Runs: 6}
	}}
	// Shared-memory witnesses on the arena's instances: SIMULATION(FloodMin)
	// restarted at another n and back, then Protocol E.
	simAt := func(n int) arenaCell { return arenaCell{m: types.SMCR, v: types.RV1, n: n, k: 3, t: 2} }
	protocolE := arenaCell{m: types.SMCR, v: types.RV2, n: 10, k: 2, t: 6}
	for _, w := range []struct {
		c    arenaCell
		want string
	}{{simAt(8), "FloodMin via SIMULATION"}, {simAt(12), "FloodMin via SIMULATION"}, {protocolE, "Protocol E"}} {
		if r := theory.Classify(w.c.m, w.c.v, w.c.n, w.c.k, w.c.t); r.Protocol != w.want {
			t.Fatalf("%v is witnessed by %s, want %s", w.c, r.Protocol, w.want)
		}
	}
	seq := append([]arenaCell{}, cells[:len(cells)/2]...)
	seq = append(seq, violating, arenaCell{m: types.SMByz, v: types.SV2, n: 8, k: 4, t: 1}, failing)
	seq = append(seq, simAt(8), simAt(12), simAt(8), protocolE)
	seq = append(seq, cells[len(cells)/2:]...)
	seq = append(seq, violating, cells[0], simAt(12), failing, protocolE, cells[len(cells)-1])

	a := new(Arena)
	violations, runErrors := 0, 0
	for pass := 0; pass < 2; pass++ {
		for i, c := range seq {
			seed := uint64(100*pass + i + 1)
			got, err := c.run(a, seed)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			violations += len(got.Violations)
			runErrors += len(got.RunErrors)
			want, _ := c.run(new(Arena), seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, step %d (%v): summary on a used arena differs\n used  %v\n fresh %v", pass, i, c, got, want)
			}
			if c.sweep == nil && !got.OK() {
				t.Errorf("%v: witness failed: %v", c, got)
			}
		}
	}
	if violations == 0 || runErrors == 0 {
		t.Fatalf("the sequence lacks a failing cell: %d violations, %d run errors", violations, runErrors)
	}
}

// trivialSweep is a sweep on a's witness instances in which every process
// decides its own input, so every run breaks agreement at k = 2.
func trivialSweep(t *testing.T, a *Arena, seed uint64) *MPSweep {
	t.Helper()
	spec := trace.ProtocolSpec{Proto: theory.ProtoTrivial}
	build, err := spec.MPFactory()
	if err != nil {
		t.Fatal(err)
	}
	return &MPSweep{Name: "trivial k=2", N: 7, K: 2, T: 2, Validity: types.RV1, BaseSeed: seed,
		NewProtocol: witnessFactory(a, spec, build), Runs: 6, Patterns: []InputPattern{Distinct}}
}

// checkKeptViolations requires of every violation sum keeps that its error
// is a checker.Violation on the outcome's own record and that its text names
// that record, and of the records that each is another run's.
func checkKeptViolations(t *testing.T, sum *Summary) {
	t.Helper()
	if len(sum.Violations) < 2 {
		t.Fatalf("%v: want a violation on every run", sum)
	}
	seen := map[uint64]bool{}
	for _, out := range sum.Violations {
		var v *checker.Violation
		if !errors.As(out.Err, &v) {
			t.Fatalf("seed %d: %v is not a checker violation", out.Seed, out.Err)
		}
		if v.Record != out.Record {
			t.Fatalf("seed %d: violation on %v, outcome record %v", out.Seed, v.Record, out.Record)
		}
		if !strings.Contains(out.Err.Error(), out.Record.String()) {
			t.Fatalf("seed %d: error text %q does not name %v", out.Seed, out.Err, out.Record)
		}
		if seen[out.Record.Seed] {
			t.Fatalf("seed %d: two outcomes keep the record of run seed %d", out.Seed, out.Record.Seed)
		}
		seen[out.Record.Seed] = true
	}
}

// TestArenaViolationOwnsItsRecord checks that a kept violation does not point
// at the arena's record, which the next run overwrites: not after a later
// sweep on the same arena, and not while four workers share arenas through
// a free list and read their errors after handing the arena back (under
// -race, a shared record is a data race).
func TestArenaViolationOwnsItsRecord(t *testing.T) {
	a := new(Arena)
	first := trivialSweep(t, a, 1).run(a)
	checkKeptViolations(t, first)
	text := first.String()
	trivialSweep(t, a, 2).run(a)
	checkKeptViolations(t, first)
	if again := first.String(); again != text {
		t.Fatalf("summary changed after a later sweep on its arena:\n before %s\n after  %s", text, again)
	}

	var free sweep.FreeList[Arena]
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				a := free.Get()
				sum := trivialSweep(t, a, uint64(10*w+i+3)).run(a)
				free.Put(a)
				checkKeptViolations(t, sum)
			}
		}(w)
	}
	wg.Wait()
}

// doubleDecider decides at Start and again on its first delivery: a protocol
// bug the runtime reports as a run error, in the middle of a run.
type doubleDecider struct{}

func (doubleDecider) Start(api mpnet.API) {
	api.Decide(api.Input())
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (doubleDecider) Deliver(api mpnet.API, _ types.ProcessID, p types.Payload) { api.Decide(p.Value) }

// TestWarmArenaAllocs bounds the allocations of a cell on a warm arena:
// Protocol C(1) in MP/Byz, the costliest witness of the message-passing
// sweeps. With the witness instances, simulator tables and records,
// adversaries and buffers kept, and the checker scanning records in place,
// what is left is per run — the Byzantine strategies the plan builds — and
// per cell (the sweep and the summary).
func TestWarmArenaAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are checked in the full run")
	}
	const runs = 12
	r := theory.Classify(types.MPByz, types.SV2, 10, 4, 1)
	if r.Proto != theory.ProtoC || r.EchoEll != 1 {
		t.Fatalf("cell is witnessed by %s, want Protocol C(1)", r.Protocol)
	}
	a := new(Arena)
	cell := func() {
		sum, err := a.ValidateCell(types.MPByz, types.SV2, 10, 4, 1, r, CellOpts{Runs: runs, Seed: 3})
		if err != nil || !sum.OK() {
			t.Fatalf("cell failed: %v %v", err, sum)
		}
	}
	cell()
	got := testing.AllocsPerRun(20, cell)
	// About 44: the Byzantine strategies of 12 runs, about 3 a run, plus
	// the cell's own. A fresh arena makes about 930; a warm cell made about
	// 136 while every run allocated its record and its crash script, about
	// 160 while the checker built its input sets per run and the cell was
	// classified twice, and about 2,770 when every run built its protocol
	// state, generators and partition gate anew.
	if limit := 50.0; got > limit {
		t.Errorf("a cell on a warm arena makes %.0f allocations, above %.0f", got, limit)
	}
}

// TestWarmCellAllocsConstant: on a warm arena a crash-model cell allocates
// only per cell — the sweep, its factory and the summary — so a 24-run cell
// makes as many allocations as a 12-run one, for the shared-memory witnesses
// (SIMULATION(FloodMin) and Protocol E, on the arena's instances) as for the
// message-passing one (FloodMin). Each used to allocate per run: about 160,
// 80 and 10 allocations at n = 16.
func TestWarmCellAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are checked in the full run")
	}
	for _, c := range []struct {
		m       types.Model
		v       types.Validity
		k, t    int
		witness string
	}{
		{types.SMCR, types.RV1, 15, 14, "FloodMin via SIMULATION"},
		{types.SMCR, types.RV2, 2, 15, "Protocol E"},
		{types.MPCR, types.RV1, 15, 14, "FloodMin"},
	} {
		const n = 16
		r := theory.Classify(c.m, c.v, n, c.k, c.t)
		if r.Protocol != c.witness {
			t.Fatalf("%v/%v n=%d k=%d t=%d is witnessed by %q, want %q", c.m, c.v, n, c.k, c.t, r.Protocol, c.witness)
		}
		a := new(Arena)
		cell := func(runs int) func() {
			return func() {
				sum, err := a.ValidateCell(c.m, c.v, n, c.k, c.t, r, CellOpts{Runs: runs, Seed: 3})
				if err != nil || !sum.OK() {
					t.Fatalf("%s cell failed: %v %v", c.witness, err, sum)
				}
			}
		}
		cell(24)()
		short, long := testing.AllocsPerRun(10, cell(12)), testing.AllocsPerRun(10, cell(24))
		t.Logf("%s: %.0f allocations in a 12-run cell, %.0f in a 24-run cell", c.witness, short, long)
		// The 24-run cell makes 12 more runs, so a run that allocates adds
		// at least 12. Under -race, sync.Pool drops a share of what is put back, so
		// fmt's printer pool and the runtime allocate now and then and a
		// count moves by up to 5 either way; |d| < 6 tells the two apart.
		if d := long - short; d <= -6 || d >= 6 {
			t.Errorf("%s: a warm 12-run cell makes %.0f allocations and a 24-run cell %.0f: a run allocates", c.witness, short, long)
		}
	}
}
