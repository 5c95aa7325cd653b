package trace

import (
	"fmt"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// script is a recorded schedule read front to back. Every entry is a
// choice among what the runtime offers at its step, so every list of
// non-negative entries is a schedule some run follows, and replay needs no
// divergence logic: an unmodified artifact replays exactly, a shrunk one
// replays to the run its entries choose.
type script struct {
	entries []int
	cursor  int
}

// next returns the next entry, or false once the script is exhausted.
func (s *script) next() (int, bool) {
	if s.cursor == len(s.entries) {
		return 0, false
	}
	s.cursor++
	return s.entries[s.cursor-1], true
}

// mpReplay follows a recorded pick sequence: an entry picks the envelope at
// position entry mod Len in pool order. Past the end of the script it
// delivers oldest-first, which is fair and reads no rng, so replay cannot
// perturb the process random streams.
type mpReplay struct{ script }

var _ mpnet.Scheduler = (*mpReplay)(nil)

// Next implements mpnet.Scheduler in O(1).
func (s *mpReplay) Next(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
	if e, ok := s.next(); ok {
		return e % pool.Len()
	}
	return pool.Oldest()
}

// smReplay follows a recorded grant sequence. The shared-memory runtime
// keeps every live process pending whenever the scheduler runs, so an entry
// naming a process that is not pending (it has exited or crashed, or it is
// no process at all) is skipped. Past the end of the script it grants round
// robin: a fallback that always granted the same process would let a
// process that polls for the others spin forever. Neither reads the rng.
type smReplay struct {
	script
	rest smmem.RoundRobin
}

var _ smmem.Scheduler = (*smReplay)(nil)

// Next implements smmem.Scheduler.
func (s *smReplay) Next(v *smmem.View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	for e, ok := s.next(); ok; e, ok = s.next() {
		for _, p := range pending {
			if int(p) == e {
				return p
			}
		}
	}
	return s.rest.Next(v, pending, rng)
}

// BuildMPConfig reconstructs the runnable message-passing configuration of
// an artifact: witness protocol factory, materialized Byzantine strategies,
// scripted crashes, and the schedule-following scheduler.
func BuildMPConfig(t *Trace) (mpnet.Config, error) {
	if t.Model.Comm != types.MessagePassing {
		return mpnet.Config{}, fmt.Errorf("%w: %s artifact in message-passing replay", ErrBadTrace, t.Model)
	}
	factory, err := t.Protocol.MPFactory()
	if err != nil {
		return mpnet.Config{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	cfg := mpnet.Config{
		N: t.N, T: t.T, K: t.K,
		Inputs:       t.Inputs,
		NewProtocol:  factory,
		Seed:         t.Seed,
		MaxEvents:    t.Budget,
		HaltOnDecide: t.HaltOnDecide,
		Scheduler:    &mpReplay{script{entries: t.Schedule}},
	}
	if len(t.Byzantine) > 0 {
		cfg.Byzantine = make(map[types.ProcessID]mpnet.Protocol, len(t.Byzantine))
		for _, b := range t.Byzantine {
			p, err := b.MPProtocol()
			if err != nil {
				return mpnet.Config{}, err
			}
			cfg.Byzantine[b.Proc] = p
		}
	}
	if len(t.Crashes) > 0 {
		cfg.Crash = types.ScriptedCrashes(t.Crashes)
	}
	return cfg, nil
}

// BuildSMConfig reconstructs the runnable shared-memory configuration of an
// artifact.
func BuildSMConfig(t *Trace) (smmem.Config, error) {
	if t.Model.Comm != types.SharedMemory {
		return smmem.Config{}, fmt.Errorf("%w: %s artifact in shared-memory replay", ErrBadTrace, t.Model)
	}
	factory, err := t.Protocol.SMFactory()
	if err != nil {
		return smmem.Config{}, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	cfg := smmem.Config{
		N: t.N, T: t.T, K: t.K,
		Inputs:      t.Inputs,
		NewProtocol: factory,
		Seed:        t.Seed,
		MaxOps:      t.Budget,
		Scheduler:   &smReplay{script: script{entries: t.Schedule}},
	}
	if len(t.Byzantine) > 0 {
		cfg.Byzantine = make(map[types.ProcessID]smmem.Protocol, len(t.Byzantine))
		for _, b := range t.Byzantine {
			p, err := b.SMProtocol()
			if err != nil {
				return smmem.Config{}, err
			}
			cfg.Byzantine[b.Proc] = p
		}
	}
	if len(t.Crashes) > 0 {
		cfg.Crash = types.ScriptedCrashes(t.Crashes)
	}
	return cfg, nil
}

// Result is the outcome of replaying an artifact: the fresh run record and
// verdict, plus the re-recorded decision stream for fidelity checks (an
// unmodified artifact reproduces Schedule and Crashes exactly).
type Result struct {
	Record   *types.RunRecord
	Verdict  Verdict
	Schedule []int
	Crashes  []types.CrashPoint
}

// Replay re-executes an artifact with recording on.
func Replay(t *Trace) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rec := &Recorder{}
	record, err := run(t, rec)
	if err != nil {
		return nil, fmt.Errorf("trace: replay run: %w", err)
	}
	sortFaults(nil, rec.Crashes)
	return &Result{
		Record:   record,
		Verdict:  VerdictOf(record, t.Validity),
		Schedule: rec.Schedule,
		Crashes:  rec.Crashes,
	}, nil
}

// run executes an artifact's configuration, recording into rec unless it is
// nil.
func run(t *Trace, rec *Recorder) (*types.RunRecord, error) {
	switch t.Model.Comm {
	case types.MessagePassing:
		cfg, err := BuildMPConfig(t)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.MP(&cfg)
		}
		return mpnet.Run(cfg)
	case types.SharedMemory:
		cfg, err := BuildSMConfig(t)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			rec.SM(&cfg)
		}
		return smmem.Run(cfg)
	default:
		return nil, fmt.Errorf("%w: %v", types.ErrUnknownModel, t.Model)
	}
}

// Evaluate re-executes an artifact without recording — the shrinker's hot
// path — and returns the fresh verdict.
func Evaluate(t *Trace) (Verdict, error) {
	rec, err := run(t, nil)
	if err != nil {
		return Verdict{}, err
	}
	return VerdictOf(rec, t.Validity), nil
}
