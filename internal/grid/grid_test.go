package grid

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/types"
)

func testSpec(t *testing.T) *Spec {
	t.Helper()
	s := &Spec{
		Models:     []types.Model{types.MPCR, types.SMCR},
		Validities: []types.Validity{types.RV1, types.RV2},
		Ns:         []int{4, 5},
		Ks:         []int{2, 3},
		Ts:         []int{1, 2, 6}, // 6 > n: enumerated but invalid
		Plans:      []FaultPlan{FaultFull, FaultNone},
		Trials:     2,
		Runs:       4,
		Seed:       7,
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return s
}

func TestParseAxes(t *testing.T) {
	ns, err := ParseInts(" 8, 16 ,64,")
	if err != nil {
		t.Fatalf("ParseInts: %v", err)
	}
	if len(ns) != 3 || ns[0] != 8 || ns[1] != 16 || ns[2] != 64 {
		t.Fatalf("ParseInts = %v", ns)
	}
	if _, err := ParseInts("8,x"); err == nil {
		t.Fatal("ParseInts accepted a non-integer")
	}
	if _, err := ParseInts(" , "); err == nil {
		t.Fatal("ParseInts accepted an empty list")
	}
	ms, err := ParseModels("mp/cr,sm/byz")
	if err != nil {
		t.Fatalf("ParseModels: %v", err)
	}
	if len(ms) != 2 || ms[0] != types.MPCR || ms[1] != types.SMByz {
		t.Fatalf("ParseModels = %v", ms)
	}
	vs, err := ParseValidities("rv1,wv2")
	if err != nil {
		t.Fatalf("ParseValidities: %v", err)
	}
	if len(vs) != 2 || vs[0] != types.RV1 || vs[1] != types.WV2 {
		t.Fatalf("ParseValidities = %v", vs)
	}
	ps, err := ParseFaultPlans("Full, none")
	if err != nil {
		t.Fatalf("ParseFaultPlans: %v", err)
	}
	if len(ps) != 2 || ps[0] != FaultFull || ps[1] != FaultNone {
		t.Fatalf("ParseFaultPlans = %v", ps)
	}
	if _, err := ParseFaultPlans("most"); err == nil {
		t.Fatal("ParseFaultPlans accepted an unknown plan")
	}
}

func TestValidateRejects(t *testing.T) {
	base := testSpec(t)
	for name, mutate := range map[string]func(*Spec){
		"empty models":   func(s *Spec) { s.Models = nil },
		"empty ns":       func(s *Spec) { s.Ns = nil },
		"n too small":    func(s *Spec) { s.Ns = []int{1} },
		"k too small":    func(s *Spec) { s.Ks = []int{0} },
		"negative t":     func(s *Spec) { s.Ts = []int{-1} },
		"zero trials":    func(s *Spec) { s.Trials = 0 },
		"zero runs":      func(s *Spec) { s.Runs = 0 },
		"bad validity":   func(s *Spec) { s.Validities = []types.Validity{99} },
		"bad plan":       func(s *Spec) { s.Plans = []FaultPlan{9} },
		"axis too large": func(s *Spec) { s.Ns = make([]int, MaxAxis+1) },
	} {
		s := *base
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
		}
	}
}

func TestCellEnumeration(t *testing.T) {
	s := testSpec(t)
	total := s.NumCells()
	want := uint64(2 * 2 * 2 * 2 * 3 * 2 * 2)
	if total != want {
		t.Fatalf("NumCells = %d, want %d", total, want)
	}
	// Trial is the innermost axis and every coordinate tuple is distinct.
	seen := map[Cell]bool{}
	for idx := uint64(0); idx < total; idx++ {
		c := s.CellAt(idx)
		if seen[c] {
			t.Fatalf("cell %d enumerated twice: %+v", idx, c)
		}
		seen[c] = true
		if int(idx%uint64(s.Trials)) != c.Trial {
			t.Fatalf("cell %d: trial %d not innermost", idx, c.Trial)
		}
	}
	// Seeds depend on coordinates only, and differ across trials.
	c0, c1 := s.CellAt(0), s.CellAt(1)
	if s.CellSeed(c0) == s.CellSeed(c1) {
		t.Fatal("distinct trials share a seed")
	}
	if s.CellSeed(c0) != s.CellSeed(c0) {
		t.Fatal("CellSeed is not a pure function")
	}
}

func TestFaultPlanCap(t *testing.T) {
	cases := []struct {
		p    FaultPlan
		t    int
		want int
	}{
		{FaultFull, 4, 0},
		{FaultHalf, 4, 2},
		{FaultHalf, 1, -1}, // t/2 == 0: nothing to cap, force fail-free
		{FaultNone, 4, -1},
	}
	for _, c := range cases {
		if got := c.p.Cap(c.t); got != c.want {
			t.Errorf("%v.Cap(%d) = %d, want %d", c.p, c.t, got, c.want)
		}
	}
}

func TestModelCodeRoundTrip(t *testing.T) {
	for _, m := range types.AllModels() {
		got, err := ModelFromCode(ModelCode(m))
		if err != nil {
			t.Fatalf("ModelFromCode(%d): %v", ModelCode(m), err)
		}
		if got != m {
			t.Fatalf("model %v round-tripped to %v", m, got)
		}
	}
	if _, err := ModelFromCode(4); err == nil {
		t.Fatal("ModelFromCode accepted code 4")
	}
}

func TestInvalidCellsNotExecuted(t *testing.T) {
	s := testSpec(t)
	found := false
	for idx := uint64(0); idx < s.NumCells(); idx++ {
		c := s.CellAt(idx)
		if c.T <= c.N {
			continue
		}
		found = true
		rec := s.RunCell(idx)
		if rec.Status != StatusInvalid {
			t.Fatalf("cell %d (t=%d > n=%d): status %q", idx, c.T, c.N, rec.Status)
		}
		if rec.Runs != 0 || rec.Lemma != "" || rec.Protocol != "" {
			t.Fatalf("invalid cell %d was classified or executed: %+v", idx, rec)
		}
	}
	if !found {
		t.Fatal("test spec has no t > n cells")
	}
}

// render produces the CSV and JSONL bytes for a record slice.
func render(t *testing.T, recs []Record) (string, string) {
	t.Helper()
	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := WriteJSONL(&jsonlBuf, recs); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return csvBuf.String(), jsonlBuf.String()
}

func TestOutputIdenticalAcrossWorkers(t *testing.T) {
	s := testSpec(t)
	serialCSV, serialJSONL := render(t, s.Run(nil))
	parallelCSV, parallelJSONL := render(t, s.Run(sweep.NewPool(8).Map))
	if serialCSV != parallelCSV {
		t.Error("CSV differs between 1 and 8 workers")
	}
	if serialJSONL != parallelJSONL {
		t.Error("JSONL differs between 1 and 8 workers")
	}
	if !strings.HasPrefix(serialCSV, strings.Join(CSVHeader, ",")+"\n") {
		t.Error("CSV missing header row")
	}
	if n := strings.Count(serialJSONL, "\n"); n != int(s.NumCells()) {
		t.Errorf("JSONL has %d lines, want %d", n, s.NumCells())
	}
}

func TestShardPartitioningIdentity(t *testing.T) {
	s := testSpec(t)
	whole := s.Run(nil)
	wholeCSV, wholeJSONL := render(t, whole)

	// Any partitioning into contiguous ranges, concatenated, reproduces the
	// whole run byte-for-byte — shard sizes deliberately unaligned.
	for _, shard := range []int{1, 5, 31, int(s.NumCells())} {
		var merged []Record
		for first := uint64(0); first < s.NumCells(); first += uint64(shard) {
			count := shard
			if rem := s.NumCells() - first; uint64(count) > rem {
				count = int(rem)
			}
			merged = append(merged, s.RunRange(first, count, sweep.NewPool(3).Map)...)
		}
		gotCSV, gotJSONL := render(t, merged)
		if gotCSV != wholeCSV {
			t.Errorf("shard=%d: CSV differs from whole-grid run", shard)
		}
		if gotJSONL != wholeJSONL {
			t.Errorf("shard=%d: JSONL differs from whole-grid run", shard)
		}
	}
}

// classifiedPanel returns a small classified panel with solvable cells.
func classifiedPanel(t *testing.T) *theory.Grid {
	t.Helper()
	for _, g := range theory.ComputeFigure(types.MPCR, 6) {
		if len(g.SolvableCells()) > 3 {
			return g
		}
	}
	t.Fatal("no panel with enough solvable cells at n=6")
	return nil
}

func TestSamplePanelDeterministic(t *testing.T) {
	// SamplePanel is pure in its inputs and clamps to the panel size.
	g := classifiedPanel(t)
	a := SamplePanel(g, 3, 42)
	b := SamplePanel(g, 3, 42)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("SamplePanel sizes: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	if got := SamplePanel(g, 1<<20, 42); len(got) != len(g.SolvableCells()) {
		t.Fatalf("oversized sample request returned %d cells, want %d", len(got), len(g.SolvableCells()))
	}
	if got := SamplePanel(g, 0, 42); got != nil {
		t.Fatalf("zero sample request returned %v", got)
	}
}

// TestValidatePanelsIdenticalAcrossWorkers validates the panels of two
// figures serially and through a pool: the cells share the free list's
// arenas, message-passing and shared-memory cells alike, and the checks must
// not tell which worker ran which cell.
func TestValidatePanelsIdenticalAcrossWorkers(t *testing.T) {
	panels := append(theory.ComputeFigure(types.MPByz, 8), theory.ComputeFigure(types.SMCR, 8)...)
	seed := func(g *theory.Grid) uint64 { return uint64(g.Model.Comm)*100 + uint64(g.Validity) }
	serial := ValidatePanels(panels, seed, 3, 6, nil)
	parallel := ValidatePanels(panels, seed, 3, 6, sweep.NewPool(4).Map)
	cells := 0
	for i, checks := range serial {
		for _, c := range checks {
			if c.Err != nil || !c.Sum.OK() {
				t.Errorf("%v/%v k=%d t=%d: %v %v", panels[i].Model, panels[i].Validity, c.Cell.K, c.Cell.T, c.Err, c.Sum)
			}
			cells++
		}
	}
	if cells < 2*len(panels) {
		t.Fatalf("validated %d cells over %d panels; too few to share arenas", cells, len(panels))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("ValidatePanels differs between a nil executor and 4 workers")
	}
}
