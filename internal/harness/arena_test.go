package harness

import (
	"fmt"
	"reflect"
	"testing"

	"kset/internal/mpnet"
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
// every message-passing witness in both failure models with n changing, a
// shared-memory cell, a sweep whose witness instances come from the arena
// and break agreement, and a sweep whose runs end in a protocol error — and
// requires of every cell the summary a fresh Arena computes: the witness
// instances, simulator tables, partition gate and buffers a cell leaves
// behind may not show in the next.
func TestArenaReuseMatchesFresh(t *testing.T) {
	cells := witnessCells(t, []int{6, 9, 7, 10, 8, 11, 12, 6, 10, 7, 9, 8, 12, 11})
	violating := arenaCell{m: types.MPCR, n: 7, sweep: func(a *Arena) *MPSweep {
		// Every process decides its own input: agreement fails at k = 2.
		spec := trace.ProtocolSpec{Proto: theory.ProtoTrivial}
		build, err := spec.MPFactory()
		if err != nil {
			t.Fatal(err)
		}
		return &MPSweep{Name: "trivial k=2", N: 7, K: 2, T: 2, Validity: types.RV1,
			NewProtocol: a.witnessFactory(spec, build), Runs: 6, Patterns: []InputPattern{Distinct}}
	}}
	failing := arenaCell{m: types.MPByz, n: 9, sweep: func(*Arena) *MPSweep {
		return &MPSweep{Name: "double decide", N: 9, K: 3, T: 2, Validity: types.RV1, Byzantine: true,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return doubleDecider{} }, Runs: 6}
	}}
	seq := append([]arenaCell{}, cells[:len(cells)/2]...)
	seq = append(seq, violating, arenaCell{m: types.SMByz, v: types.SV2, n: 8, k: 4, t: 1}, failing)
	seq = append(seq, cells[len(cells)/2:]...)
	seq = append(seq, violating, cells[0], failing, cells[len(cells)-1])

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
// sweeps. With the witness instances, simulator tables, partition gate and
// buffers kept, and the checker scanning records in place, what is left is
// per run — the record, the Byzantine strategies and the crash scripts — and
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
	// About 136: 12 runs at 11 allocations each, plus the cell's own. A
	// fresh arena makes about 930; a warm cell made about 160 while the
	// checker built its input sets per run and the cell was classified
	// twice, and about 2,770 when every run built its protocol state,
	// generators and partition gate anew.
	if limit := 160.0; got > limit {
		t.Errorf("a cell on a warm arena makes %.0f allocations, above %.0f", got, limit)
	}
}
