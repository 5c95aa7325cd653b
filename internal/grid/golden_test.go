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
// The MP/Byz hashes were re-pinned when the classifier closed its lemma table
// under the paper's carry rules: SV2 at (n, k, t) = (8, 2, 3) became
// impossible by Lemma 3.11 on RV2; no run changed.
func TestMPRecordsGolden(t *testing.T) {
	checkRecordsGolden(t, []goldenRecords{
		{types.MPCR, 1, "f7cc39923c8dab4b"},
		{types.MPCR, 2, "9f8d98117e61bcd9"},
		{types.MPByz, 1, "90b377b3cbf83e3e"},
		{types.MPByz, 2, "bb736fdb448ece85"},
	})
}

// TestSMRecordsGolden is the shared-memory counterpart: hashes computed while
// smmem still ran a central scheduler goroutine behind two unbuffered
// channels. SIMULATION over every message-passing witness, Protocols E and F,
// the fair, hold and starve schedules, both crash adversaries and the
// Byzantine register strategies run behind these cells, so a runtime that
// grants in a different order, consults the crash adversary or the scheduler
// once more or once less, or stamps a decision at a different operation count
// changes a hash. The SM/Byz hashes were re-pinned with the MP/Byz ones:
// WV1's Lemma 4.1 citation took the crash-to-Byzantine wording; no run
// changed.
func TestSMRecordsGolden(t *testing.T) {
	checkRecordsGolden(t, []goldenRecords{
		{types.SMCR, 1, "4e36569d3d97416a"},
		{types.SMCR, 2, "2de4193e24ff7773"},
		{types.SMByz, 1, "db8b5aa9bda69124"},
		{types.SMByz, 2, "813619061604ccec"},
	})
}

// goldenRecords is one pinned sweep: the FNV-64a hash of the JSONL rendering
// of the model's n = 8 grid at the given seed.
type goldenRecords struct {
	model types.Model
	seed  uint64
	want  string
}

func checkRecordsGolden(t *testing.T, golden []goldenRecords) {
	t.Helper()
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
