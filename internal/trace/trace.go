// Package trace defines the portable run artifact of the reproduction: a
// versioned, self-describing record of one simulated k-set consensus run —
// model, protocol, parameters, inputs, fault plan, the full ordered decision
// sequence (message picks for the message-passing simulator, operation
// grants for the shared-memory one), and the checker verdict the run
// produced.
//
// The artifact exists because a violating run found by a randomized sweep is
// otherwise just a seed: not portable across code changes that perturb the
// planning stream, not steppable under a debugger, and not minimizable. A
// trace captures the run at the level the paper's own impossibility
// arguments work at — an explicit schedule — so every sweep failure becomes
// a checked-in regression artifact that internal/shrink can reduce to a
// small counterexample.
//
// The package provides the canonical text codec (Encode/Decode), one
// capture Recorder for both simulators (via CaptureMP/CaptureSM), and
// exact replay (Replay/Evaluate): replaying an
// unmodified artifact reproduces the identical decision sequence, run record
// and verdict, because every simulator choice outside the recorded schedule
// is a pure function of the configuration and seed.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
)

// Version is the current artifact format version.
const Version = 2

// ErrBadTrace reports a structurally invalid artifact.
var ErrBadTrace = errors.New("trace: invalid artifact")

// ProtocolSpec names the witness protocol run by correct processes, in the
// serializable form used by artifacts (mirroring theory.Result's protocol
// fields).
type ProtocolSpec struct {
	// Proto is the paper protocol identifier.
	Proto theory.ProtocolID
	// Ell is the echo parameter l when Proto is ProtoC.
	Ell int
	// Sim marks shared-memory cells that run a message-passing protocol
	// through the paper's SIMULATION transformation.
	Sim bool
}

// SpecFor converts a solvable classification into its protocol spec.
func SpecFor(r theory.Result) ProtocolSpec {
	return ProtocolSpec{Proto: r.Proto, Ell: r.EchoEll, Sim: r.ViaSimulation}
}

// Zero reports whether the spec is unset.
func (s ProtocolSpec) Zero() bool { return s.Proto == theory.ProtoNone }

// MPFactory builds the per-process factory for a message-passing protocol
// spec. Its error names the protocol and the model and leaves the context to
// the caller: it is an artifact's fault (ErrBadTrace) only where the spec was
// read from one.
func (s ProtocolSpec) MPFactory() (func(types.ProcessID) mpnet.Protocol, error) {
	if s.Sim {
		return nil, fmt.Errorf("%v via SIMULATION is not a message-passing protocol", s.Proto)
	}
	switch s.Proto {
	case theory.ProtoTrivial:
		return func(types.ProcessID) mpnet.Protocol { return mp.NewTrivial() }, nil
	case theory.ProtoFloodMin:
		return func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() }, nil
	case theory.ProtoA:
		return func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() }, nil
	case theory.ProtoB:
		return func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolB() }, nil
	case theory.ProtoC:
		if s.Ell < 1 {
			return nil, fmt.Errorf("Protocol C needs l >= 1, got %d", s.Ell)
		}
		ell := s.Ell
		return func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(ell) }, nil
	case theory.ProtoD:
		return func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolD() }, nil
	default:
		return nil, fmt.Errorf("%v is not a message-passing protocol", s.Proto)
	}
}

// SMFactory builds the per-process factory for a shared-memory protocol
// spec, wrapping message-passing protocols in SIMULATION when Sim is set.
// Its errors are MPFactory's kind.
func (s ProtocolSpec) SMFactory() (func(types.ProcessID) smmem.Protocol, error) {
	if s.Sim {
		inner, err := ProtocolSpec{Proto: s.Proto, Ell: s.Ell}.MPFactory()
		if err != nil {
			return nil, err
		}
		return func(id types.ProcessID) smmem.Protocol { return sm.NewSimulation(inner(id)) }, nil
	}
	switch s.Proto {
	case theory.ProtoE:
		return func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() }, nil
	case theory.ProtoF:
		return func(types.ProcessID) smmem.Protocol { return sm.NewProtocolF() }, nil
	default:
		return nil, fmt.Errorf("%v is not a native shared-memory protocol", s.Proto)
	}
}

// Byzantine strategy kinds. The message-passing kinds are the strategies of
// internal/adversary; the sim- kinds are the same strategies run over shared
// memory through SIMULATION; garbage-writer is the native shared-memory
// register flooder.
const (
	ByzSilent          = "silent"
	ByzPersonaInput    = "persona-input"
	ByzPersonaEcho     = "persona-echo"
	ByzEchoSplitter    = "echo-splitter"
	ByzRandomNoise     = "random-noise"
	ByzGarbageWriter   = "garbage-writer"
	ByzSimSilent       = "sim-silent"
	ByzSimPersonaInput = "sim-persona-input"
	ByzSimPersonaEcho  = "sim-persona-echo"
)

// ByzSpec is the serializable description of one Byzantine process's
// strategy. Only the fields relevant to Kind are meaningful.
type ByzSpec struct {
	// Proc is the faulty process.
	Proc types.ProcessID
	// Kind names the strategy (the Byz* constants).
	Kind string
	// Personas, for persona kinds, maps recipient pid i to the value claimed
	// toward it (dense, one entry per process).
	Personas []types.Value
	// Default is the persona value claimed toward recipients beyond the
	// Personas slice.
	Default types.Value
	// Shift parameterizes echo-splitter.
	Shift types.Value
	// Burst and Max parameterize random-noise.
	Burst, Max int
	// Rounds parameterizes garbage-writer.
	Rounds int
}

// MPProtocol materializes the strategy for the message-passing runtime. A
// persona strategy reads b.Personas in place, so the slice must not change
// while it runs.
func (b ByzSpec) MPProtocol() (mpnet.Protocol, error) {
	switch b.Kind {
	case ByzSilent:
		return adversary.Silent{}, nil
	case ByzPersonaInput:
		return adversary.NewPersonaInput(b.Personas, b.Default), nil
	case ByzPersonaEcho:
		return adversary.NewPersonaEcho(b.Personas, b.Default), nil
	case ByzEchoSplitter:
		return adversary.NewEchoSplitter(b.Shift), nil
	case ByzRandomNoise:
		n := adversary.NewRandomNoise(b.Burst)
		if b.Max > 0 {
			n.MaxMessages = b.Max
		}
		return n, nil
	default:
		return nil, fmt.Errorf("%w: %q is not a message-passing Byzantine strategy", ErrBadTrace, b.Kind)
	}
}

// SMProtocol materializes the strategy for the shared-memory runtime; a
// persona strategy reads b.Personas in place, as MPProtocol's does.
func (b ByzSpec) SMProtocol() (smmem.Protocol, error) {
	switch b.Kind {
	case ByzGarbageWriter:
		return adversary.NewGarbageWriter(b.Rounds), nil
	case ByzSimSilent:
		return sm.NewSimulation(adversary.Silent{}), nil
	case ByzSimPersonaInput:
		return sm.NewSimulation(adversary.NewPersonaInput(b.Personas, b.Default)), nil
	case ByzSimPersonaEcho:
		return sm.NewSimulation(adversary.NewPersonaEcho(b.Personas, b.Default)), nil
	default:
		return nil, fmt.Errorf("%w: %q is not a shared-memory Byzantine strategy", ErrBadTrace, b.Kind)
	}
}

// Verdict is the checker outcome recorded in (and recomputed from) a run.
type Verdict struct {
	// OK reports that termination, agreement and the validity condition all
	// held.
	OK bool
	// Condition names the violated condition ("termination", "agreement", a
	// validity name, or "error" for structural run-record problems).
	Condition string
	// Detail is the checker's one-line description of the violation.
	Detail string
}

// VerdictOf runs the full checker over a record and folds the result into a
// Verdict.
func VerdictOf(rec *types.RunRecord, v types.Validity) Verdict {
	err := checker.CheckAll(rec, v)
	if err == nil {
		return Verdict{OK: true}
	}
	var viol *checker.Violation
	if errors.As(err, &viol) {
		return Verdict{Condition: viol.Condition, Detail: viol.Detail}
	}
	return Verdict{Condition: "error", Detail: err.Error()}
}

// String renders the verdict as it appears in artifacts.
func (v Verdict) String() string {
	if v.OK {
		return "ok"
	}
	return "violation " + v.Condition + " " + v.Detail
}

// Trace is one captured run: everything needed to re-execute it exactly and
// to check that the re-execution reproduces the recorded outcome.
type Trace struct {
	// Version is the artifact format version (see Version).
	Version int
	// Model is the system model the run executed in.
	Model types.Model
	// Validity is the condition the run was checked against.
	Validity types.Validity
	// N, K, T are the problem parameters.
	N, K, T int
	// Seed drove every random choice of the original run; process random
	// streams derive from it, so replay must use the same seed.
	Seed uint64
	// Budget is the configured event/operation cap (0 = runtime default).
	Budget int
	// HaltOnDecide records the terminating-protocol semantics flag
	// (message-passing only).
	HaltOnDecide bool
	// Protocol is the witness protocol run by correct processes.
	Protocol ProtocolSpec
	// Inputs are the per-process input values (length N).
	Inputs []types.Value
	// Byzantine lists the Byzantine processes and their strategies, sorted
	// by process id.
	Byzantine []ByzSpec
	// Crashes lists the recorded crash points, sorted by process id; replay
	// hands them to the runtime as its types.ScriptedCrashes.
	Crashes []types.CrashPoint
	// Schedule is the full ordered decision sequence, one choice per step
	// among what the runtime offers: the position of the picked envelope in
	// pool order (message passing, taken modulo the number in flight), or
	// the granted process id (shared memory, skipped when that process is
	// not pending). Any list of non-negative entries is a schedule. Past its
	// end replay continues oldest-first (message passing) or round robin
	// (shared memory).
	Schedule []int
	// Verdict is the checker outcome the original run produced.
	Verdict Verdict
}

// Validate performs structural checks on the artifact.
func (t *Trace) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrBadTrace, t.Version)
	}
	if t.N <= 0 || t.K <= 0 || t.T < 0 || t.T > t.N {
		return fmt.Errorf("%w: n=%d k=%d t=%d", ErrBadTrace, t.N, t.K, t.T)
	}
	if len(t.Inputs) != t.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadTrace, len(t.Inputs), t.N)
	}
	if t.Protocol.Zero() {
		return fmt.Errorf("%w: no protocol", ErrBadTrace)
	}
	if len(t.Byzantine) > t.T {
		return fmt.Errorf("%w: %d Byzantine processes exceed t=%d", ErrBadTrace, len(t.Byzantine), t.T)
	}
	faulty := make([]bool, t.N)
	for i, b := range t.Byzantine {
		if err := checkFaultEntry("byz", int(b.Proc), t.N, i > 0 && b.Proc <= t.Byzantine[i-1].Proc, faulty); err != nil {
			return err
		}
		faulty[b.Proc] = true
	}
	for i, c := range t.Crashes {
		if err := checkFaultEntry("crash", int(c.Proc), t.N, i > 0 && c.Proc <= t.Crashes[i-1].Proc, faulty); err != nil {
			return err
		}
		if c.Index < 0 {
			return fmt.Errorf("%w: crash index %d", ErrBadTrace, c.Index)
		}
		wantKind := c.Kind == types.CrashAtEvent || c.Kind == types.CrashAtSend
		if t.Model.Comm == types.SharedMemory {
			wantKind = c.Kind == types.CrashAtOp
		}
		if !wantKind {
			return fmt.Errorf("%w: crash kind %q in %s model", ErrBadTrace, c.Kind, t.Model)
		}
		faulty[c.Proc] = true
	}
	for _, s := range t.Schedule {
		if s < 0 {
			return fmt.Errorf("%w: schedule entry %d out of range", ErrBadTrace, s)
		}
	}
	if !t.Verdict.OK {
		if t.Verdict.Condition == "" || strings.ContainsAny(t.Verdict.Condition, " \n") {
			return fmt.Errorf("%w: bad verdict condition %q", ErrBadTrace, t.Verdict.Condition)
		}
		if t.Verdict.Detail == "" || strings.ContainsRune(t.Verdict.Detail, '\n') {
			return fmt.Errorf("%w: bad verdict detail %q", ErrBadTrace, t.Verdict.Detail)
		}
	}
	return nil
}

// checkFaultEntry validates one byz/crash list entry: pid in range, list
// sorted strictly by pid, and no process appearing in both lists.
func checkFaultEntry(label string, pid, n int, unsorted bool, faulty []bool) error {
	if pid < 0 || pid >= n {
		return fmt.Errorf("%w: %s process %d out of range", ErrBadTrace, label, pid)
	}
	if unsorted {
		return fmt.Errorf("%w: %s entries not sorted by process", ErrBadTrace, label)
	}
	if faulty[pid] {
		return fmt.Errorf("%w: process %d listed as faulty twice", ErrBadTrace, pid)
	}
	return nil
}

// sortFaults puts byz and crash lists in canonical (pid-ascending) order.
func sortFaults(byz []ByzSpec, crashes []types.CrashPoint) {
	sort.Slice(byz, func(i, j int) bool { return byz[i].Proc < byz[j].Proc })
	sort.Slice(crashes, func(i, j int) bool { return crashes[i].Proc < crashes[j].Proc })
}
