package theory

import (
	"errors"
	"testing"

	"kset/internal/types"
)

func TestGridAxisAccessors(t *testing.T) {
	g := ComputeGrid(types.MPCR, types.RV1, 10)
	if g.KMin() != 2 || g.KMax() != 9 || g.TMin() != 1 || g.TMax() != 10 {
		t.Errorf("axes: k [%d,%d] t [%d,%d]", g.KMin(), g.KMax(), g.TMin(), g.TMax())
	}
	if got := g.At(2, 1); got.Status != Solvable {
		t.Errorf("At(2,1) = %v, want solvable", got.Status)
	}
	if got := g.At(2, 10); got.Status != Impossible {
		t.Errorf("At(2,10) = %v, want impossible", got.Status)
	}
}

func TestFiguresMapping(t *testing.T) {
	figs := Figures()
	if len(figs) != 4 {
		t.Fatalf("%d figures, want 4", len(figs))
	}
	want := map[types.Model]int{
		types.MPCR: 2, types.MPByz: 4, types.SMCR: 5, types.SMByz: 6,
	}
	for _, f := range figs {
		if want[f.Model] != f.Number {
			t.Errorf("figure for %v = %d, want %d", f.Model, f.Number, want[f.Model])
		}
		got, err := FigureForModel(f.Model)
		if err != nil || got != f.Number {
			t.Errorf("FigureForModel(%v) = %d, %v", f.Model, got, err)
		}
	}
	if _, err := FigureForModel(types.Model{}); !errors.Is(err, types.ErrUnknownModel) {
		t.Errorf("unknown model error = %v", err)
	}
}

func TestComputeFigureHasSixPanelsInOrder(t *testing.T) {
	grids := ComputeFigure(types.SMCR, 8)
	if len(grids) != 6 {
		t.Fatalf("%d panels, want 6", len(grids))
	}
	for i, v := range types.AllValidities() {
		if grids[i].Validity != v {
			t.Errorf("panel %d is %v, want %v", i, grids[i].Validity, v)
		}
		if grids[i].Model != types.SMCR || grids[i].N != 8 {
			t.Errorf("panel %d has wrong identity: %v n=%d", i, grids[i].Model, grids[i].N)
		}
	}
}

// TestComputeFigureMatchesComputeGrid pins the memoized shared-pass figure
// computation to the panel-at-a-time reference: every cell of every panel of
// every figure must classify identically.
func TestComputeFigureMatchesComputeGrid(t *testing.T) {
	const n = 12
	for _, f := range Figures() {
		grids := ComputeFigure(f.Model, n)
		for i, v := range types.AllValidities() {
			ref := ComputeGrid(f.Model, v, n)
			for k := ref.KMin(); k <= ref.KMax(); k++ {
				for tt := ref.TMin(); tt <= ref.TMax(); tt++ {
					if grids[i].At(k, tt) != ref.At(k, tt) {
						t.Errorf("%v/%v k=%d t=%d: figure pass %+v != grid pass %+v",
							f.Model, v, k, tt, grids[i].At(k, tt), ref.At(k, tt))
					}
				}
			}
		}
	}
}

func TestStatusAndProtocolStrings(t *testing.T) {
	if Solvable.String() != "solvable" || Impossible.String() != "impossible" || Open.String() != "open" {
		t.Error("status strings changed")
	}
	if Status(99).String() == "" {
		t.Error("unknown status should still render")
	}
	names := map[ProtocolID]string{
		ProtoNone:     "",
		ProtoFloodMin: "FloodMin",
		ProtoA:        "Protocol A",
		ProtoB:        "Protocol B",
		ProtoC:        "Protocol C",
		ProtoD:        "Protocol D",
		ProtoE:        "Protocol E",
		ProtoF:        "Protocol F",
	}
	for id, want := range names {
		if got := id.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", id, got, want)
		}
	}
}

func TestClassifyBoundaryCases(t *testing.T) {
	for _, m := range types.AllModels() {
		for _, v := range types.AllValidities() {
			// k >= n: trivially solvable for any t, even Byzantine, even SV1.
			r := Classify(m, v, 8, 8, 7)
			if r.Status != Solvable || r.Proto != ProtoTrivial {
				t.Errorf("%v/%v k=n: %v via %v", m, v, r.Status, r.Proto)
			}
			if (m.Comm == types.SharedMemory) != r.ViaSimulation {
				t.Errorf("%v/%v k=n: ViaSimulation=%v", m, v, r.ViaSimulation)
			}
			// t = 0: solvable for any k.
			r = Classify(m, v, 8, 3, 0)
			if r.Status != Solvable || r.Proto != ProtoFloodMin {
				t.Errorf("%v/%v t=0: %v via %v", m, v, r.Status, r.Proto)
			}
			// k = 1, t >= 1: classical consensus, impossible.
			r = Classify(m, v, 8, 1, 1)
			if r.Status != Impossible {
				t.Errorf("%v/%v k=1: %v", m, v, r.Status)
			}
		}
	}
}

func TestClassifyPanicsOutsideRange(t *testing.T) {
	cases := []struct {
		m       types.Model
		v       types.Validity
		n, k, t int
	}{
		{types.MPCR, types.RV1, 1, 1, 1},  // n too small
		{types.MPCR, types.RV1, 8, 0, 1},  // k too small
		{types.MPCR, types.RV1, 8, 3, -1}, // t negative
		// An unknown model or validity panics at every point, the
		// Section 2 boundary cases (k >= n, t = 0, k = 1) included.
		{types.Model{}, types.RV1, 4, 2, 1},
		{types.Model{}, types.RV1, 4, 4, 1},
		{types.Model{}, types.RV1, 4, 2, 0},
		{types.Model{}, types.RV1, 4, 1, 1},
		{types.Model{Comm: 3, Failure: types.Crash}, types.RV1, 4, 2, 1},
		{types.Model{Comm: types.SharedMemory, Failure: 9}, types.RV1, 4, 4, 1},
		{types.MPCR, types.Validity(0), 4, 2, 1},
		{types.MPCR, types.Validity(0), 4, 4, 1},
		{types.SMByz, types.Validity(0), 4, 1, 1},
		{types.SMByz, types.Validity(7), 4, 2, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Classify(%v, %v, %d,%d,%d) did not panic", c.m, c.v, c.n, c.k, c.t)
				}
			}()
			Classify(c.m, c.v, c.n, c.k, c.t)
		}()
	}
}
