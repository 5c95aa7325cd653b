package trace

import (
	"reflect"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/types"
)

// refMPReplay is mpReplay as it was before the indexed pool: three scans of
// the envelope slice per step. It is the oracle of
// TestMPReplayMatchesReference.
type refMPReplay struct {
	script  []int
	cursor  int
	maxSeen int
}

func (s *refMPReplay) Next(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
	inflight := pool.Envelopes()
	for _, env := range inflight {
		if env.Seq > s.maxSeen {
			s.maxSeen = env.Seq
		}
	}
	for s.cursor < len(s.script) {
		want := s.script[s.cursor]
		if idx := refSeqIndex(inflight, want); idx >= 0 {
			s.cursor++
			return idx
		}
		if want <= s.maxSeen {
			s.cursor++
			continue
		}
		break
	}
	return refOldestIndex(inflight)
}

func refSeqIndex(inflight []mpnet.Envelope, seq int) int {
	for i, env := range inflight {
		if env.Seq == seq {
			return i
		}
	}
	return -1
}

func refOldestIndex(inflight []mpnet.Envelope) int {
	best := 0
	for i := 1; i < len(inflight); i++ {
		if inflight[i].Seq < inflight[best].Seq {
			best = i
		}
	}
	return best
}

// TestMPReplayMatchesReference replays captured schedules — as recorded, and
// damaged the ways the shrinker damages them (truncated, entries dropped,
// entries out of order, entries that never existed) — through mpReplay and
// through its old body, and requires the identical pick sequence, crash
// points and record. The damaged scripts walk every degradation branch:
// skip-a-consumed-entry, wait-oldest-first, exhausted script.
func TestMPReplayMatchesReference(t *testing.T) {
	byzSpecs := []ByzSpec{
		{Proc: 4, Kind: ByzPersonaInput, Personas: []types.Value{0, 1, 0, 1, 0, 1}, Default: 7},
		{Proc: 5, Kind: ByzRandomNoise, Burst: 2, Max: 64},
	}
	for seed := uint64(1); seed <= 20; seed++ {
		crashSpec := ProtocolSpec{Proto: theory.ProtoFloodMin}
		crashTrace, _, err := CaptureMP(mpnet.Config{
			N: 8, T: 3, K: 4,
			Inputs:      []types.Value{3, 1, 4, 1, 5, 9, 2, 6},
			NewProtocol: mustMPFactory(t, crashSpec),
			Crash:       mpnet.NewRandomCrashes(0.25, seed),
			Seed:        seed,
		}, types.RV1, crashSpec, nil)
		if err != nil {
			t.Fatalf("seed %d: CaptureMP: %v", seed, err)
		}
		byzSpec := ProtocolSpec{Proto: theory.ProtoC, Ell: 2}
		byzTrace, _, err := CaptureMP(mpnet.Config{
			N: 6, T: 2, K: 2,
			Inputs:      []types.Value{2, 2, 3, 3, 0, 0},
			NewProtocol: mustMPFactory(t, byzSpec),
			Byzantine:   mpByzConfig(t, byzSpecs),
			Scheduler:   mpnet.LIFO{},
			Seed:        seed,
		}, types.SV1, byzSpec, byzSpecs)
		if err != nil {
			t.Fatalf("seed %d: CaptureMP: %v", seed, err)
		}
		for _, tr := range []*Trace{crashTrace, byzTrace} {
			for name, script := range damagedScripts(tr.Schedule, seed) {
				candidate := *tr
				candidate.Schedule = script
				replay := func(sched mpnet.Scheduler) (*types.RunRecord, *Recorder) {
					cfg, err := BuildMPConfig(&candidate)
					if err != nil {
						t.Fatalf("seed %d %s: BuildMPConfig: %v", seed, name, err)
					}
					rec := &Recorder{}
					cfg.Scheduler, cfg.Recorder = sched, rec
					record, err := mpnet.Run(cfg)
					if err != nil {
						t.Fatalf("seed %d %s: Run: %v", seed, name, err)
					}
					return record, rec
				}
				wantRecord, want := replay(&refMPReplay{script: script})
				gotRecord, got := replay(&mpReplay{script: script})
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRecord, wantRecord) {
					t.Fatalf("seed %d, %s script on %s: replay differs from the reference\n got %v\nwant %v\n got %+v\nwant %+v",
						seed, name, tr.Model, got.Schedule, want.Schedule, gotRecord, wantRecord)
				}
			}
		}
	}
}

// damagedScripts returns the recorded schedule and the shapes a shrink
// candidate's schedule takes.
func damagedScripts(schedule []int, seed uint64) map[string][]int {
	rng := prng.New(seed)
	clone := func() []int { return append([]int(nil), schedule...) }
	dropped := make([]int, 0, len(schedule))
	for _, seq := range schedule {
		if rng.Intn(4) != 0 {
			dropped = append(dropped, seq)
		}
	}
	shuffled := clone()
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	alien := clone()
	for i := range alien {
		switch rng.Intn(6) {
		case 0:
			alien[i] = -1 - rng.Intn(5)
		case 1:
			alien[i] += 100000 // never sent
		}
	}
	reversed := clone()
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	return map[string][]int{
		"recorded":  clone(),
		"truncated": schedule[:len(schedule)/3],
		"dropped":   dropped,
		"shuffled":  shuffled,
		"alien":     alien,
		"reversed":  reversed,
		"empty":     nil,
	}
}
