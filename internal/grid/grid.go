// Package grid models parameter-grid sweeps over the paper's problem space:
// the cross product (model × validity × n × k × t × fault plan × trial),
// parsed from comma-separated flag lists in the pacs_sweep style, enumerated
// in one canonical order, and executed into structured per-cell records.
//
// Everything in this package is deterministic by construction. A cell's seed
// is a pure hash of the spec seed and the cell's coordinates — not a draw
// from a shared stream — so the record produced for a cell is identical no
// matter which worker, shard, or node executes it, and no matter how many
// times it is executed. Rendering walks cells in enumeration order, which
// makes the CSV/JSONL output byte-identical for any worker count and any
// shard partitioning.
package grid

import (
	"fmt"
	"strconv"
	"strings"

	"kset/internal/prng"
	"kset/internal/types"
)

// FaultPlan selects how the randomized scenario planner's fault budget is
// applied inside one grid cell.
type FaultPlan uint8

// Fault plans. Full keeps the planner's historical randomized budget (worst
// case f = t most of the time), Half caps the planned fault count at t/2,
// and None forces fail-free runs.
const (
	FaultFull FaultPlan = iota + 1
	FaultHalf
	FaultNone
)

// String returns the flag spelling of the plan.
func (p FaultPlan) String() string {
	switch p {
	case FaultFull:
		return "full"
	case FaultHalf:
		return "half"
	case FaultNone:
		return "none"
	default:
		return "plan(" + strconv.Itoa(int(p)) + ")"
	}
}

// Cap translates the plan at fault tolerance t into a harness FaultCap value
// (0 = uncapped, >0 = upper bound, <0 = fail-free).
func (p FaultPlan) Cap(t int) int {
	switch p {
	case FaultHalf:
		if t/2 == 0 {
			return -1
		}
		return t / 2
	case FaultNone:
		return -1
	default:
		return 0
	}
}

// ErrParse reports malformed grid axis flags.
var ErrParse = fmt.Errorf("grid: malformed axis list")

// ParseFaultPlans parses a comma-separated list of fault plan names.
func ParseFaultPlans(s string) ([]FaultPlan, error) {
	return parseList(s, parsePlan)
}

// parsePlan parses one fault plan name.
func parsePlan(tok string) (FaultPlan, error) {
	switch strings.ToLower(tok) {
	case "full":
		return FaultFull, nil
	case "half":
		return FaultHalf, nil
	case "none":
		return FaultNone, nil
	default:
		return 0, fmt.Errorf("%w: unknown fault plan %q (want full, half or none)", ErrParse, tok)
	}
}

// ParseInts parses a comma-separated integer list ("8,16,64"). Whitespace
// around entries is trimmed and empty entries are ignored; an entirely empty
// list or a non-integer entry is an error.
func ParseInts(s string) ([]int, error) {
	return parseList(s, func(tok string) (int, error) {
		v, err := strconv.Atoi(tok)
		if err != nil {
			return 0, fmt.Errorf("%w: %q is not an integer", ErrParse, tok)
		}
		return v, nil
	})
}

// ParseModels parses a comma-separated list of model names ("mp/cr,sm/byz").
func ParseModels(s string) ([]types.Model, error) {
	return parseList(s, types.ParseModel)
}

// ParseValidities parses a comma-separated list of validity names
// ("rv1,wv2").
func ParseValidities(s string) ([]types.Validity, error) {
	return parseList(s, types.ParseValidity)
}

// parseList implements the shared comma-separated list discipline.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := parse(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty list %q", ErrParse, s)
	}
	return out, nil
}

// Spec is a grid sweep plan: the cross product of its axes, with Trials
// records per point. The zero value is invalid; build one from flags and
// call Validate.
type Spec struct {
	// Models, Validities, Ns, Ks, Ts and Plans are the grid axes, each in
	// the order cells enumerate.
	Models     []types.Model
	Validities []types.Validity
	Ns, Ks, Ts []int
	Plans      []FaultPlan
	// Trials is the number of independently seeded records per grid point.
	Trials int
	// Runs is the number of randomized adversarial runs behind each record.
	Runs int
	// Seed is the master seed; every cell derives its own seed from it by
	// hashing its coordinates.
	Seed uint64
}

// MaxAxis bounds the length of each spec axis, matching the wire-format
// bound so any valid local spec can also be distributed.
const MaxAxis = 64

// Validate checks the spec is well formed: every axis non-empty and within
// MaxAxis, parameters in the ranges the classifier accepts (n >= 2, k >= 1,
// t >= 0), Trials and Runs positive. Cells whose t exceeds their n are
// still enumerated but marked invalid instead of executed.
func (s *Spec) Validate() error {
	axes := []struct {
		name string
		len  int
	}{
		{"models", len(s.Models)},
		{"validities", len(s.Validities)},
		{"n", len(s.Ns)},
		{"k", len(s.Ks)},
		{"t", len(s.Ts)},
		{"faults", len(s.Plans)},
	}
	for _, a := range axes {
		if a.len == 0 {
			return fmt.Errorf("grid: spec has empty %s axis", a.name)
		}
		if a.len > MaxAxis {
			return fmt.Errorf("grid: %s axis has %d values, limit %d", a.name, a.len, MaxAxis)
		}
	}
	for _, m := range s.Models {
		if err := types.CheckModel(m); err != nil {
			return fmt.Errorf("grid: %w", err)
		}
	}
	for _, v := range s.Validities {
		if err := types.CheckValidity(v); err != nil {
			return fmt.Errorf("grid: %w", err)
		}
	}
	for _, p := range s.Plans {
		if p != FaultFull && p != FaultHalf && p != FaultNone {
			return fmt.Errorf("grid: unknown fault plan %d", p)
		}
	}
	for _, n := range s.Ns {
		if n < 2 {
			return fmt.Errorf("grid: n=%d out of range (need n >= 2)", n)
		}
	}
	for _, k := range s.Ks {
		if k < 1 {
			return fmt.Errorf("grid: k=%d out of range (need k >= 1)", k)
		}
	}
	for _, t := range s.Ts {
		if t < 0 {
			return fmt.Errorf("grid: t=%d out of range (need t >= 0)", t)
		}
	}
	if s.Trials < 1 {
		return fmt.Errorf("grid: trials=%d out of range (need >= 1)", s.Trials)
	}
	if s.Runs < 1 {
		return fmt.Errorf("grid: runs=%d out of range (need >= 1)", s.Runs)
	}
	return nil
}

// NumCells returns the total cell count of the grid: one cell per (point,
// trial) pair, in enumeration order 0..NumCells()-1.
func (s *Spec) NumCells() uint64 {
	return uint64(len(s.Models)) * uint64(len(s.Validities)) *
		uint64(len(s.Ns)) * uint64(len(s.Ks)) * uint64(len(s.Ts)) *
		uint64(len(s.Plans)) * uint64(s.Trials)
}

// Cell is one fully resolved grid point plus its trial number.
type Cell struct {
	Model    types.Model
	Validity types.Validity
	N, K, T  int
	Plan     FaultPlan
	Trial    int
}

// CellAt decodes the canonical enumeration: a mixed-radix decomposition of
// idx with trial innermost, then fault plan, t, k, n, validity, and model
// outermost. idx must be < NumCells().
func (s *Spec) CellAt(idx uint64) Cell {
	var c Cell
	c.Trial = int(idx % uint64(s.Trials))
	idx /= uint64(s.Trials)
	c.Plan = s.Plans[idx%uint64(len(s.Plans))]
	idx /= uint64(len(s.Plans))
	c.T = s.Ts[idx%uint64(len(s.Ts))]
	idx /= uint64(len(s.Ts))
	c.K = s.Ks[idx%uint64(len(s.Ks))]
	idx /= uint64(len(s.Ks))
	c.N = s.Ns[idx%uint64(len(s.Ns))]
	idx /= uint64(len(s.Ns))
	c.Validity = s.Validities[idx%uint64(len(s.Validities))]
	idx /= uint64(len(s.Validities))
	c.Model = s.Models[idx]
	return c
}

// CellSeed derives the cell's scenario seed by hashing its coordinates with
// the spec seed. Pure function of cell identity: independent of enumeration
// index, worker, shard, and execution count.
func (s *Spec) CellSeed(c Cell) uint64 {
	return prng.MixSeed(s.Seed,
		uint64(ModelCode(c.Model)), uint64(c.Validity),
		uint64(c.N), uint64(c.K), uint64(c.T),
		uint64(c.Plan), uint64(c.Trial))
}

// ModelCode packs a model into a stable byte: (comm-1)*2 + (failure-1),
// giving MP/CR=0, MP/Byz=1, SM/CR=2, SM/Byz=3.
func ModelCode(m types.Model) uint8 {
	return uint8(m.Comm-1)*2 + uint8(m.Failure-1)
}

// ModelFromCode inverts ModelCode.
func ModelFromCode(c uint8) (types.Model, error) {
	models := types.AllModels()
	for _, m := range models {
		if ModelCode(m) == c {
			return m, nil
		}
	}
	return types.Model{}, fmt.Errorf("%w: code %d", types.ErrUnknownModel, c)
}
