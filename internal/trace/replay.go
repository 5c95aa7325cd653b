package trace

import (
	"fmt"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// mpReplay is a scheduler that follows a recorded pick sequence. Replaying
// an unmodified artifact never leaves the script: every scripted sequence
// number is in flight when its step comes up, because the runtime's choices
// are a pure function of the schedule and the seed.
//
// Shrunk candidates diverge, so the scheduler degrades deterministically: a
// scripted message that was already seen in flight (and is gone now) was
// consumed by the divergence and its entry is skipped; one not yet sent may
// still appear, so the scheduler delivers the oldest in-flight message and
// retries the entry next step; an exhausted script falls back to oldest-
// first entirely. The fallback never reads the rng, so replay cannot
// perturb the process random streams.
type mpReplay struct {
	script  []int
	cursor  int
	maxSeen int // highest send sequence number ever observed in flight
}

var _ mpnet.Scheduler = (*mpReplay)(nil)

// Next implements mpnet.Scheduler. Every question goes to the pool's index,
// so a step costs O(1) however many messages are in flight — the shrinker
// runs each candidate through here.
func (s *mpReplay) Next(_ *mpnet.View, pool *mpnet.Pool, _ *prng.Source) int {
	if newest := pool.Envelopes()[pool.Newest()].Seq; newest > s.maxSeen {
		s.maxSeen = newest
	}
	for s.cursor < len(s.script) {
		want := s.script[s.cursor]
		if idx := pool.IndexOf(want); idx >= 0 {
			s.cursor++
			return idx
		}
		if want <= s.maxSeen {
			// Was in flight once and is gone: it can never match again.
			s.cursor++
			continue
		}
		// Not sent yet; deliver oldest-first until it appears.
		break
	}
	return pool.Oldest()
}

// smReplay follows a recorded grant sequence. The shared-memory runtime
// keeps every live process pending whenever the scheduler runs, so a
// scripted process that is not pending has exited or crashed and its entry
// is skipped for good; an exhausted script falls back to the lowest pending
// process id. The fallback never reads the rng.
type smReplay struct {
	script []int
	cursor int
}

var _ smmem.Scheduler = (*smReplay)(nil)

// Next implements smmem.Scheduler.
func (s *smReplay) Next(_ *smmem.View, pending []types.ProcessID, _ *prng.Source) types.ProcessID {
	for s.cursor < len(s.script) {
		want := types.ProcessID(s.script[s.cursor])
		s.cursor++
		for _, p := range pending {
			if p == want {
				return want
			}
		}
	}
	return pending[0]
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
		Scheduler:    &mpReplay{script: t.Schedule},
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
		sc := &mpnet.ScriptedCrashes{
			AtEvent: make(map[types.ProcessID]int),
			AtSend:  make(map[types.ProcessID]int),
		}
		for _, c := range t.Crashes {
			switch c.Kind {
			case CrashAtEvent:
				sc.AtEvent[c.Proc] = c.Index
			case CrashAtSend:
				sc.AtSend[c.Proc] = c.Index
			}
		}
		cfg.Crash = sc
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
		Scheduler:   &smReplay{script: t.Schedule},
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
		sc := &smmem.ScriptedCrashes{AtOp: make(map[types.ProcessID]int)}
		for _, c := range t.Crashes {
			sc.AtOp[c.Proc] = c.Index
		}
		cfg.Crash = sc
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
	Crashes  []CrashSpec
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

// Rerun re-executes an artifact without recording — the shrinker's hot path.
func Rerun(t *Trace) (*types.RunRecord, error) { return run(t, nil) }

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
			cfg.Recorder = rec
		}
		return mpnet.Run(cfg)
	case types.SharedMemory:
		cfg, err := BuildSMConfig(t)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			cfg.Recorder = rec
		}
		return smmem.Run(cfg)
	default:
		return nil, fmt.Errorf("%w: %v", types.ErrUnknownModel, t.Model)
	}
}

// Evaluate re-executes an artifact and returns the fresh verdict.
func Evaluate(t *Trace) (Verdict, error) {
	rec, err := Rerun(t)
	if err != nil {
		return Verdict{}, err
	}
	return VerdictOf(rec, t.Validity), nil
}

// Recapture replays an artifact and rebuilds it in normalized form: the
// schedule and crash list become exactly what the re-execution did (a
// shrunk candidate's truncated script is replaced by the full effective
// schedule) and the verdict is recomputed. Recapture is idempotent — a
// recaptured artifact replays to itself.
func Recapture(t *Trace) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rec := &Recorder{}
	record, err := run(t, rec)
	out := *t
	norm, _, err := out.fold(rec, record, err)
	return norm, err
}
