// Package kset is a library reproduction of "On k-Set Consensus Problems in
// Asynchronous Systems" (De Prisco, Malkhi, Reiter; PODC 1999 / IEEE TPDS
// 2001).
//
// In the k-set consensus problem SC(k, t, C), each of n asynchronous
// processes starts with an input value and must irrevocably decide a value
// so that (termination) every correct process decides, (agreement) correct
// processes decide at most k distinct values, and (validity) condition C
// holds, where C is one of the paper's six conditions SV1, SV2, RV1, RV2,
// WV1, WV2. At most t processes fail, by crashing or Byzantine behaviour,
// and processes communicate by message passing or via single-writer
// multi-reader atomic registers — four models in all.
//
// The package provides:
//
//   - Classify: the paper's solvability map (Figures 2, 4, 5, 6) — for each
//     (model, validity, n, k, t), whether the problem is solvable (with the
//     witness protocol and lemma), impossible (with the lemma), or open.
//   - Solve: run the witness protocol for a solvable point on a simulated
//     asynchronous system (deterministic, seeded, adversarial scheduling)
//     and return the checked run record.
//   - Validate: sweep a point under randomized adversarial scenarios
//     (crash patterns, Byzantine strategies, hostile schedules) and check
//     every run against the SC conditions.
//   - RenderFigure / RenderLattice: regenerate the paper's figures as text.
//
// Lower layers are available for direct use: the deterministic
// message-passing simulator (internal/mpnet), the shared-memory runtime
// (internal/smmem), the protocols (internal/protocols/...), the adversary
// library and the experiment harness. The examples/ directory shows the
// intended entry points.
package kset

import (
	"fmt"

	"kset/internal/checker"
	"kset/internal/harness"
	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
)

// Core vocabulary, re-exported from the internal packages so user code needs
// only this package.
type (
	// Value is a protocol input or decision value.
	Value = types.Value
	// ProcessID identifies a process (0-based; prints as p1..pn).
	ProcessID = types.ProcessID
	// Validity is one of the paper's six validity conditions.
	Validity = types.Validity
	// Model is one of the four system models (MP/CR, MP/Byz, SM/CR, SM/Byz).
	Model = types.Model
	// RunRecord is the checked outcome of one protocol run.
	RunRecord = types.RunRecord
	// Classification labels one (model, validity, n, k, t) point.
	Classification = theory.Result
	// Status is Solvable, Impossible or Open.
	Status = theory.Status
)

// Validity conditions (see the package documentation for definitions).
const (
	SV1 = types.SV1
	SV2 = types.SV2
	RV1 = types.RV1
	RV2 = types.RV2
	WV1 = types.WV1
	WV2 = types.WV2
)

// The four system models.
var (
	MPCR  = types.MPCR
	MPByz = types.MPByz
	SMCR  = types.SMCR
	SMByz = types.SMByz
)

// Classification statuses.
const (
	Solvable   = theory.Solvable
	Impossible = theory.Impossible
	Open       = theory.Open
)

// DefaultValue is the designated default decision value v0 used by the
// protocols that may decide "no common value".
const DefaultValue = types.DefaultValue

// Classify returns the paper's classification of SC(k, t, validity) with n
// processes in the given model: solvable (with witness protocol and lemma),
// impossible (with lemma), or open. The figures' range is 2 <= k <= n-1 and
// t >= 1; the boundary cases the paper settles in Section 2 are also
// handled (k >= n trivially solvable, t = 0 solvable, k = 1 impossible).
func Classify(m Model, v Validity, n, k, t int) Classification {
	return theory.Classify(m, v, n, k, t)
}

// SolveConfig configures one Solve run.
type SolveConfig struct {
	// Model, Validity, N, K, T select the problem variant and point.
	Model    Model
	Validity Validity
	N, K, T  int
	// Inputs are the process inputs; len(Inputs) must equal N.
	Inputs []Value
	// Seed makes the run reproducible (scheduling, adversary choices).
	Seed uint64
	// Crash lists processes to crash at seeded random points (crash
	// models); must have at most T entries.
	Crash []ProcessID
}

// Solve classifies the requested point, instantiates the witness protocol if
// the point is solvable, runs it on the corresponding simulated system under
// a fair random schedule, checks all three SC conditions, and returns the
// run record. It returns an error for impossible or open points, and for
// any condition violation (which would be a bug in this reproduction).
func Solve(cfg SolveConfig) (*RunRecord, error) {
	res := theory.Classify(cfg.Model, cfg.Validity, cfg.N, cfg.K, cfg.T)
	if res.Status != theory.Solvable {
		return nil, fmt.Errorf("kset: SC(k=%d, t=%d, %v) in %v is %v (%s)",
			cfg.K, cfg.T, cfg.Validity, cfg.Model, res.Status, res.Lemma)
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("kset: %d inputs for n=%d", len(cfg.Inputs), cfg.N)
	}
	if len(cfg.Crash) > cfg.T {
		return nil, fmt.Errorf("kset: %d crash targets exceed t=%d", len(cfg.Crash), cfg.T)
	}

	var rec *RunRecord
	switch cfg.Model.Comm {
	case types.MessagePassing:
		factory, err := harness.MPFactory(res)
		if err != nil {
			return nil, err
		}
		mcfg := mpnet.Config{
			N: cfg.N, T: cfg.T, K: cfg.K,
			Inputs:      cfg.Inputs,
			NewProtocol: factory,
			Seed:        cfg.Seed,
		}
		if len(cfg.Crash) > 0 {
			at := make(map[ProcessID]int, len(cfg.Crash))
			for i, p := range cfg.Crash {
				at[p] = (i*7)%cfg.N + 1
			}
			mcfg.Crash = &mpnet.ScriptedCrashes{AtEvent: at}
		}
		var err2 error
		rec, err2 = mpnet.Run(mcfg)
		if err2 != nil {
			return nil, err2
		}
	case types.SharedMemory:
		factory, err := harness.SMFactory(res)
		if err != nil {
			return nil, err
		}
		scfg := smmem.Config{
			N: cfg.N, T: cfg.T, K: cfg.K,
			Inputs:      cfg.Inputs,
			NewProtocol: factory,
			Seed:        cfg.Seed,
		}
		if len(cfg.Crash) > 0 {
			at := make(map[ProcessID]int, len(cfg.Crash))
			for i, p := range cfg.Crash {
				at[p] = (i*5)%(2*cfg.N) + 1
			}
			scfg.Crash = &smmem.ScriptedCrashes{AtOp: at}
		}
		var err2 error
		rec, err2 = smmem.Run(scfg)
		if err2 != nil {
			return nil, err2
		}
	default:
		return nil, fmt.Errorf("%w: %v", types.ErrUnknownModel, cfg.Model)
	}

	// The runtimes label the record by the failures that actually occurred;
	// report the model the caller asked for (a crash-only run is a legal
	// run of the Byzantine model too).
	rec.Model = cfg.Model

	if err := checker.CheckAll(rec, cfg.Validity); err != nil {
		return rec, fmt.Errorf("kset: run violated a condition (reproduction bug): %w", err)
	}
	return rec, nil
}

// Check verifies termination, agreement and the validity condition on a run
// record, returning the first violation (nil if all hold).
func Check(rec *RunRecord, v Validity) error { return checker.CheckAll(rec, v) }

// Validate empirically validates a solvable point: it sweeps the witness
// protocol across `runs` randomized adversarial scenarios and reports the
// outcome. A non-nil error means the point has no witness (impossible/open);
// a summary with violations means a reproduction bug.
func Validate(m Model, v Validity, n, k, t, runs int, seed uint64) (*harness.Summary, error) {
	return harness.ValidateCell(m, v, n, k, t, harness.CellOpts{Runs: runs, Seed: seed})
}
