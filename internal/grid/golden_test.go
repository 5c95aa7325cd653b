package grid

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"kset/internal/types"
)

// TestMPRecordsGolden pins the rendered records of a small message-passing
// sweep to hashes computed before mpnet's schedulers moved onto the indexed
// in-flight pool. Every delivery policy the harness plans (fair, fifo, lifo,
// channel-fifo, partition), both crash adversaries and the Byzantine
// strategies run behind these cells, so a scheduler that picks a different
// envelope, or draws from the rng once more or once less, changes a hash.
// bench/ checks the same identity on its own grids; this is the tier-1 copy.
func TestMPRecordsGolden(t *testing.T) {
	golden := []struct {
		model types.Model
		seed  uint64
		want  string
	}{
		{types.MPCR, 1, "f7cc39923c8dab4b"},
		{types.MPCR, 2, "9f8d98117e61bcd9"},
		{types.MPByz, 1, "e52479cde1b2a5ba"},
		{types.MPByz, 2, "7fff93ed31675fd7"},
	}
	for _, g := range golden {
		g := g
		t.Run(fmt.Sprintf("%s/seed=%d", g.model, g.seed), func(t *testing.T) {
			s := &Spec{
				Models:     []types.Model{g.model},
				Validities: []types.Validity{types.SV2, types.RV1, types.RV2, types.WV1, types.WV2},
				Ns:         []int{8},
				Ks:         []int{2, 4},
				Ts:         []int{1, 2, 3},
				Plans:      []FaultPlan{FaultFull, FaultNone},
				Trials:     1,
				Runs:       12,
				Seed:       g.seed,
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			recs := s.Run(nil)
			ran := 0
			for i := range recs {
				ran += recs[i].Runs
			}
			if ran == 0 {
				t.Fatal("no cell executed a run: the hash would pin nothing")
			}
			var buf bytes.Buffer
			if err := WriteJSONL(&buf, recs); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			_, _ = h.Write(buf.Bytes())
			if got := fmt.Sprintf("%016x", h.Sum64()); got != g.want {
				t.Errorf("record hash %s, want %s (%d cells, %d runs)", got, g.want, len(recs), ran)
			}
		})
	}
}
