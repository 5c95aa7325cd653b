package harness

import (
	"testing"

	"kset/internal/theory"
	"kset/internal/types"
)

// cell is one empirical validation point: a solvable cell of a figure panel.
type cell struct {
	model types.Model
	v     types.Validity
	n     int
	k     int
	t     int
}

// solvableCells lists representative points inside each protocol's claimed
// region, covering all four models and every validity condition with a
// solvable region. Each is validated under randomized adversarial sweeps.
var solvableCells = []cell{
	// Figure 2 (MP/CR).
	{types.MPCR, types.RV1, 8, 3, 2},  // FloodMin, t < k
	{types.MPCR, types.RV1, 5, 2, 1},  // FloodMin, minimal
	{types.MPCR, types.RV1, 10, 5, 4}, // FloodMin, boundary t = k-1
	{types.MPCR, types.RV2, 8, 2, 3},  // Protocol A, kt < (k-1)n
	{types.MPCR, types.RV2, 9, 3, 5},  // Protocol A
	{types.MPCR, types.SV2, 8, 3, 1},  // Protocol B, 2kt < (k-1)n
	{types.MPCR, types.SV2, 12, 4, 4}, // Protocol B, boundary-ish
	{types.MPCR, types.WV1, 8, 4, 3},  // FloodMin via lattice
	{types.MPCR, types.WV2, 6, 4, 4},  // Protocol A via lattice
	{types.MPCR, types.WV2, 10, 2, 4}, // Protocol A, t < n/2

	// Figure 4 (MP/Byz).
	{types.MPByz, types.WV2, 8, 4, 2},  // Protocol A, Lemma 3.12
	{types.MPByz, types.WV2, 8, 5, 4},  // Protocol A, Lemma 3.13 (t >= n/2)
	{types.MPByz, types.SV2, 8, 3, 1},  // Protocol C(1)
	{types.MPByz, types.SV2, 12, 4, 2}, // Protocol C(1)
	{types.MPByz, types.SV2, 16, 6, 6}, // Protocol C(2): t >= n/3 needs l = 2
	{types.MPByz, types.RV2, 12, 4, 2}, // Protocol C(l) via lattice
	{types.MPByz, types.WV1, 8, 3, 2},  // Protocol D, k >= Z(8,2) = 3
	{types.MPByz, types.WV1, 8, 6, 3},  // Protocol D, k >= Z(8,3) = 6

	// Figure 5 (SM/CR).
	{types.SMCR, types.RV1, 6, 3, 2}, // FloodMin via SIMULATION
	{types.SMCR, types.RV2, 6, 2, 5}, // Protocol E: any t, k >= 2
	{types.SMCR, types.RV2, 8, 2, 8}, // Protocol E at t = n
	{types.SMCR, types.SV2, 8, 5, 3}, // Protocol F, k > t+1
	{types.SMCR, types.SV2, 6, 4, 1}, // Protocol F
	{types.SMCR, types.WV1, 6, 4, 3}, // FloodMin via SIMULATION (lattice)
	{types.SMCR, types.WV2, 7, 2, 6}, // Protocol E via lattice

	// Figure 6 (SM/Byz).
	{types.SMByz, types.WV2, 6, 2, 5}, // Protocol E: any t, even Byzantine
	{types.SMByz, types.WV2, 8, 3, 3}, // Protocol E
	{types.SMByz, types.SV2, 8, 5, 3}, // Protocol F
	{types.SMByz, types.RV2, 8, 5, 3}, // Protocol F via lattice
	{types.SMByz, types.WV1, 8, 3, 2}, // Protocol D via SIMULATION
	{types.SMByz, types.WV1, 8, 6, 3}, // Protocol D via SIMULATION, k = Z(8,3)
	{types.SMCR, types.SV2, 12, 3, 2}, // Protocol B via SIMULATION (k <= t+1, B region)
}

// TestSolvableCellsHoldUnderAdversarialSweeps is the core empirical claim of
// the reproduction: at sampled points inside every claimed solvability
// region, the witness protocol satisfies termination, agreement and the
// panel's validity condition across randomized adversarial scenarios.
func TestSolvableCellsHoldUnderAdversarialSweeps(t *testing.T) {
	runs := 48
	if testing.Short() {
		runs = 12
	}
	for _, c := range solvableCells {
		c := c
		name := c.model.String() + "/" + c.v.String() +
			"/n" + itoa(c.n) + "k" + itoa(c.k) + "t" + itoa(c.t)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := theory.Classify(c.model, c.v, c.n, c.k, c.t)
			if res.Status != theory.Solvable {
				t.Fatalf("cell expected solvable, classifier says %v (%s)", res.Status, res.Lemma)
			}
			sum, err := ValidateCell(c.model, c.v, c.n, c.k, c.t, CellOpts{Runs: runs, Seed: 0xC0FFEE})
			if err != nil {
				t.Fatalf("ValidateCell: %v", err)
			}
			if !sum.OK() {
				for _, v := range sum.Violations {
					t.Errorf("violation [%s]: %v", v.Scenario, v.Err)
				}
				for _, e := range sum.RunErrors {
					t.Errorf("run error [%s]: %v", e.Scenario, e.Err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
