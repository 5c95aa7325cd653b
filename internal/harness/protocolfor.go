package harness

import (
	"errors"
	"fmt"

	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// ErrNoWitness reports a classification with no runnable witness protocol
// (an impossible or open cell).
var ErrNoWitness = errors.New("harness: classification has no witness protocol")

// MPFactory builds the per-process protocol factory for the witness protocol
// of a solvable message-passing cell. The construction itself lives with the
// trace artifact's ProtocolSpec so that replayed artifacts and live sweeps
// instantiate witnesses through the same code path.
func MPFactory(r theory.Result) (func(types.ProcessID) mpnet.Protocol, error) {
	if r.Status != theory.Solvable || r.ViaSimulation {
		return nil, fmt.Errorf("%w: %s %q", ErrNoWitness, r.Status, r.Protocol)
	}
	f, err := trace.SpecFor(r).MPFactory()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoWitness, err)
	}
	return f, nil
}

// SMFactory builds the per-process protocol factory for the witness protocol
// of a solvable shared-memory cell, wrapping message-passing witnesses in
// the SIMULATION transformation when the classification says so.
func SMFactory(r theory.Result) (func(types.ProcessID) smmem.Protocol, error) {
	if r.Status != theory.Solvable {
		return nil, fmt.Errorf("%w: %s", ErrNoWitness, r.Status)
	}
	f, err := trace.SpecFor(r).SMFactory()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoWitness, err)
	}
	return f, nil
}

// CellOpts configures a cell-validation sweep beyond the problem parameters.
type CellOpts struct {
	// Runs is the number of randomized runs (0 = sweep default).
	Runs int
	// Seed seeds the scenario stream.
	Seed uint64
	// FaultCap clamps the planned fault count of every scenario: 0 keeps
	// the planner's full randomized budget, >0 bounds it from above, <0
	// forces fail-free runs. See MPSweep.FaultCap.
	FaultCap int
}

// clampFaults applies a CellOpts/sweep FaultCap to a planned fault count.
func clampFaults(f, faultCap int) int {
	switch {
	case faultCap < 0:
		return 0
	case faultCap > 0 && f > faultCap:
		return faultCap
	default:
		return f
	}
}

// ValidateCell empirically validates one solvable cell of a figure panel: it
// classifies the cell, instantiates the witness protocol and sweeps
// randomized adversarial scenarios under o, checking every run. It is
// new(Arena).ValidateCell with the cell's classification.
func ValidateCell(m types.Model, v types.Validity, n, k, t int, o CellOpts) (*Summary, error) {
	return new(Arena).ValidateCell(m, v, n, k, t, theory.Classify(m, v, n, k, t), o)
}

// ValidateCell is the package-level ValidateCell on a, for a cell the caller
// has already classified as r: the runs run one after another on a's working
// set, and the witness runs on a's instances, restarted run after run. The
// summary is the one a fresh Arena gives.
func (a *Arena) ValidateCell(m types.Model, v types.Validity, n, k, t int, r theory.Result, o CellOpts) (*Summary, error) {
	s, err := newCellSweep(m, v, n, k, t, r, o, a)
	if err != nil {
		return nil, err
	}
	return s.run(a), nil
}

// CaptureCellRun re-derives one run of a solvable cell's randomized sweep —
// identified by the per-run seed a Summary outcome records — and re-executes
// it with recording on, returning the portable trace artifact. This is how
// cmd/ksetverify turns a sweep violation into a replayable artifact.
func CaptureCellRun(m types.Model, v types.Validity, n, k, t int, runSeed uint64) (*trace.Trace, *types.RunRecord, error) {
	s, err := newCellSweep(m, v, n, k, t, theory.Classify(m, v, n, k, t), CellOpts{}, new(Arena))
	if err != nil {
		return nil, nil, err
	}
	return s.Capture(runSeed)
}

// cellSweep is what MPSweep and SMSweep share: the sweep ValidateCell
// runs and CaptureCellRun re-derives a run of.
type cellSweep interface {
	run(a *Arena) *Summary
	Capture(runSeed uint64) (*trace.Trace, *types.RunRecord, error)
}

// newCellSweep builds the sweep of a cell classified as r. The sweep takes
// its witness instances from a: the sweep's runs are the only users of a's
// instances.
func newCellSweep(m types.Model, v types.Validity, n, k, t int, r theory.Result, o CellOpts, a *Arena) (cellSweep, error) {
	if r.Status != theory.Solvable {
		return nil, fmt.Errorf("%w: cell %v/%v n=%d k=%d t=%d is %v", ErrNoWitness, m, v, n, k, t, r.Status)
	}
	name := fmt.Sprintf("%v/%v n=%d k=%d t=%d via %s", m, v, n, k, t, r.Protocol)
	byz := m.Failure == types.Byzantine
	switch m.Comm {
	case types.MessagePassing:
		factory, err := MPFactory(r)
		if err != nil {
			return nil, err
		}
		spec := trace.SpecFor(r)
		return &MPSweep{
			Name: name, N: n, K: k, T: t, Validity: v,
			NewProtocol: witnessFactory(a, spec, factory), Byzantine: byz, Spec: spec,
			Runs: o.Runs, BaseSeed: o.Seed, FaultCap: o.FaultCap,
		}, nil
	case types.SharedMemory:
		factory, err := SMFactory(r)
		if err != nil {
			return nil, err
		}
		spec := trace.SpecFor(r)
		return &SMSweep{
			Name: name, N: n, K: k, T: t, Validity: v,
			NewProtocol: witnessFactory(a, spec, factory), Byzantine: byz, Spec: spec,
			Runs: o.Runs, BaseSeed: o.Seed, FaultCap: o.FaultCap,
		}, nil
	default:
		return nil, fmt.Errorf("%w: %v", types.ErrUnknownModel, m)
	}
}
