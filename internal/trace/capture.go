package trace

import (
	"fmt"
	"slices"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// Recorder captures the decision stream of one run of either simulator.
// MP and SM attach it to a configuration from outside the runtime, by
// wrapping the configuration's scheduler and crash adversary: each pick or
// grant is exactly one Scheduler.Next call, and the runtime crashes a
// process exactly when its crash adversary says yes, so the wrappers see
// every decision the run makes, in order. A choice the runtime refuses
// (ErrBadSchedule) aborts the run and is not recorded. CaptureMP and
// CaptureSM fold the stream into a Trace.
type Recorder struct {
	// Schedule is the picked envelope's position in pool order per
	// main-loop step (message passing) or the granted process id per
	// operation step (shared memory).
	Schedule []int
	// Crashes are the crash points in firing order.
	Crashes []types.CrashPoint
}

// MP makes cfg's run record into r. A nil scheduler is the runtime's
// default, FairRandom.
func (r *Recorder) MP(cfg *mpnet.Config) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = mpnet.FairRandom{}
	}
	cfg.Scheduler = mpPicks{cfg.Scheduler, r}
	cfg.Crash = r.crashes(cfg.Crash)
}

// SM makes cfg's run record into r. A nil scheduler is the runtime's
// default, FairRandom.
func (r *Recorder) SM(cfg *smmem.Config) {
	if cfg.Scheduler == nil {
		cfg.Scheduler = smmem.FairRandom{}
	}
	cfg.Scheduler = smGrants{cfg.Scheduler, r}
	cfg.Crash = r.crashes(cfg.Crash)
}

// crashes wraps adv in a crashLog; no adversary stays none.
func (r *Recorder) crashes(adv types.CrashAdversary) types.CrashAdversary {
	if adv == nil {
		return nil
	}
	return crashLog{adv, r}
}

// mpPicks records every pick of sched that the runtime takes.
type mpPicks struct {
	sched mpnet.Scheduler
	r     *Recorder
}

func (s mpPicks) Next(v *mpnet.View, pool *mpnet.Pool, rng *prng.Source) int {
	idx := s.sched.Next(v, pool, rng)
	if idx >= 0 && idx < pool.Len() {
		s.r.Schedule = append(s.r.Schedule, idx)
	}
	return idx
}

// smGrants records every grant of sched that the runtime takes.
type smGrants struct {
	sched smmem.Scheduler
	r     *Recorder
}

func (s smGrants) Next(v *smmem.View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	p := s.sched.Next(v, pending, rng)
	if slices.Contains(pending, p) {
		s.r.Schedule = append(s.r.Schedule, int(p))
	}
	return p
}

// crashLog records every crash adv calls.
type crashLog struct {
	adv types.CrashAdversary
	r   *Recorder
}

func (c crashLog) Crash(p types.ProcessID, kind types.CrashKind, index int) bool {
	if !c.adv.Crash(p, kind, index) {
		return false
	}
	c.r.Crashes = append(c.r.Crashes, types.CrashPoint{Proc: p, Kind: kind, Index: index})
	return true
}

// CaptureMP executes a message-passing run with recording on and folds it
// into a portable artifact. cfg carries the run exactly as the caller would
// execute it (original scheduler, crash adversary and Byzantine protocols);
// validity selects the checked condition; spec and byz are the serializable
// descriptions of cfg.NewProtocol and cfg.Byzantine, which the artifact
// stores in place of the opaque values. The run record is returned alongside
// so callers can reuse it.
func CaptureMP(cfg mpnet.Config, validity types.Validity, spec ProtocolSpec, byz []ByzSpec) (*Trace, *types.RunRecord, error) {
	rec := &Recorder{}
	rec.MP(&cfg)
	record, err := mpnet.Run(cfg)
	t := &Trace{
		N: cfg.N, K: cfg.K, T: cfg.T,
		Validity:     validity,
		Seed:         cfg.Seed,
		Budget:       cfg.MaxEvents,
		HaltOnDecide: cfg.HaltOnDecide,
		Protocol:     spec,
		Inputs:       cfg.Inputs,
		Byzantine:    byz,
	}
	return t.fold(rec, record, err)
}

// CaptureSM is CaptureMP for the shared-memory runtime.
func CaptureSM(cfg smmem.Config, validity types.Validity, spec ProtocolSpec, byz []ByzSpec) (*Trace, *types.RunRecord, error) {
	rec := &Recorder{}
	rec.SM(&cfg)
	record, err := smmem.Run(cfg)
	t := &Trace{
		N: cfg.N, K: cfg.K, T: cfg.T,
		Validity:  validity,
		Seed:      cfg.Seed,
		Budget:    cfg.MaxOps,
		Protocol:  spec,
		Inputs:    cfg.Inputs,
		Byzantine: byz,
	}
	return t.fold(rec, record, err)
}

// fold completes t, which holds a run's parameters, with what the run did —
// the decision stream rec recorded and the verdict its record earns — and
// gives t its own copies of Inputs and Byzantine.
func (t *Trace) fold(rec *Recorder, record *types.RunRecord, err error) (*Trace, *types.RunRecord, error) {
	if err != nil {
		return nil, nil, fmt.Errorf("trace: run: %w", err)
	}
	t.Version, t.Model = Version, record.Model
	t.Inputs = append([]types.Value(nil), t.Inputs...)
	t.Byzantine = append([]ByzSpec(nil), t.Byzantine...)
	t.Schedule, t.Crashes = rec.Schedule, rec.Crashes
	t.Verdict = VerdictOf(record, t.Validity)
	sortFaults(t.Byzantine, t.Crashes)
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	return t, record, nil
}
