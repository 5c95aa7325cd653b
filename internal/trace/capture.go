package trace

import (
	"fmt"

	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/types"
)

// Recorder captures the decision stream of one run of either simulator: it
// is an mpnet.Recorder and an smmem.Recorder. Attach it to Config.Recorder,
// run, then fold the captured schedule and crash points into a Trace
// (CaptureMP and CaptureSM do both).
type Recorder struct {
	// Schedule is the picked envelope's position in pool order per
	// main-loop step (message passing) or the granted process id per
	// operation step (shared memory).
	Schedule []int
	// Crashes are the crash points in firing order.
	Crashes []CrashSpec
}

var (
	_ mpnet.Recorder = (*Recorder)(nil)
	_ smmem.Recorder = (*Recorder)(nil)
)

// Pick implements mpnet.Recorder.
func (r *Recorder) Pick(idx int) { r.Schedule = append(r.Schedule, idx) }

// Grant implements smmem.Recorder.
func (r *Recorder) Grant(p types.ProcessID) { r.Schedule = append(r.Schedule, int(p)) }

// CrashAtEvent implements mpnet.Recorder.
func (r *Recorder) CrashAtEvent(p types.ProcessID, events int) { r.crash(p, CrashAtEvent, events) }

// CrashAtSend implements mpnet.Recorder.
func (r *Recorder) CrashAtSend(p types.ProcessID, sends int) { r.crash(p, CrashAtSend, sends) }

// CrashAtOp implements smmem.Recorder.
func (r *Recorder) CrashAtOp(p types.ProcessID, ops int) { r.crash(p, CrashAtOp, ops) }

func (r *Recorder) crash(p types.ProcessID, kind string, index int) {
	r.Crashes = append(r.Crashes, CrashSpec{Proc: p, Kind: kind, Index: index})
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
	cfg.Recorder = rec
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
	cfg.Recorder = rec
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
