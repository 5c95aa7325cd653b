package grid

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Record statuses beyond the classifier's three: cells whose parameters are
// outside the model (t > n) are enumerated but marked invalid.
const StatusInvalid = "invalid"

// Record is the structured result of one grid cell: the cell coordinates,
// the solvability classification, and — for solvable cells — the verdicts
// and cost counters of the randomized adversarial sweep behind it.
//
// Every field is deterministic: counters are the simulator's logical event
// and message counts, never wall-clock or allocation measurements, so a
// record is byte-for-byte reproducible on any worker, shard, or node.
// MeanDistinctMilli carries the mean distinct-decision count in fixed-point
// millis to keep floats off the wire and out of the output.
type Record struct {
	// Kind is the record type tag, always "cell".
	Kind string `json:"kind"`
	// Cell is the enumeration index within the spec's grid.
	Cell uint64 `json:"cell"`
	// Model .. Trial are the cell coordinates.
	Model    string `json:"model"`
	Validity string `json:"validity"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	T        int    `json:"t"`
	Faults   string `json:"faults"`
	Trial    int    `json:"trial"`
	// Seed is the cell's derived scenario seed.
	Seed uint64 `json:"seed"`
	// Status, Lemma and Protocol are the solvability classification.
	Status   string `json:"status"`
	Lemma    string `json:"lemma,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	// Runs counts executed randomized runs (0 for cells with no witness).
	Runs int `json:"runs"`
	// Violations and RunErrors count failed runs; the *OK verdicts report
	// whether any recorded violation hit the named checker condition.
	Violations int  `json:"violations"`
	RunErrors  int  `json:"run_errors"`
	TermOK     bool `json:"termination_ok"`
	AgreeOK    bool `json:"agreement_ok"`
	ValidOK    bool `json:"validity_ok"`
	// Events and Messages are the summed logical simulator costs.
	Events   int64 `json:"events"`
	Messages int64 `json:"messages"`
	// MaxDistinct / MeanDistinctMilli describe agreement tightness: the
	// worst and mean (fixed-point, x1000) distinct correct decisions.
	MaxDistinct       int   `json:"max_distinct"`
	MeanDistinctMilli int64 `json:"mean_distinct_milli"`
	// DefaultDecisions counts correct processes deciding the default v0.
	DefaultDecisions int64 `json:"default_decisions"`
	// FirstViolation is the first recorded violation or run error, if any.
	FirstViolation string `json:"first_violation,omitempty"`
}

// CSVHeader is the column order of WriteCSV, one column per Record field in
// declaration order minus the JSONL kind discriminator.
var CSVHeader = []string{
	"cell", "model", "validity", "n", "k", "t", "faults", "trial", "seed",
	"status", "lemma", "protocol", "runs", "violations", "run_errors",
	"termination_ok", "agreement_ok", "validity_ok", "events", "messages",
	"max_distinct", "mean_distinct_milli", "default_decisions",
	"first_violation",
}

// csvRow renders one record in CSVHeader order.
func (r *Record) csvRow() []string {
	return []string{
		strconv.FormatUint(r.Cell, 10),
		r.Model,
		r.Validity,
		strconv.Itoa(r.N),
		strconv.Itoa(r.K),
		strconv.Itoa(r.T),
		r.Faults,
		strconv.Itoa(r.Trial),
		strconv.FormatUint(r.Seed, 10),
		r.Status,
		r.Lemma,
		r.Protocol,
		strconv.Itoa(r.Runs),
		strconv.Itoa(r.Violations),
		strconv.Itoa(r.RunErrors),
		strconv.FormatBool(r.TermOK),
		strconv.FormatBool(r.AgreeOK),
		strconv.FormatBool(r.ValidOK),
		strconv.FormatInt(r.Events, 10),
		strconv.FormatInt(r.Messages, 10),
		strconv.Itoa(r.MaxDistinct),
		strconv.FormatInt(r.MeanDistinctMilli, 10),
		strconv.FormatInt(r.DefaultDecisions, 10),
		r.FirstViolation,
	}
}

// WriteCSV writes the records as CSV with a header row. Records are written
// in slice order; pass them in enumeration order for canonical output.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return fmt.Errorf("grid: write csv header: %w", err)
	}
	for i := range recs {
		if err := cw.Write(recs[i].csvRow()); err != nil {
			return fmt.Errorf("grid: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("grid: flush csv: %w", err)
	}
	return nil
}

// WriteJSONL writes the records as JSON Lines, one object per record, field
// order pinned by the struct declaration.
func WriteJSONL(w io.Writer, recs []Record) error {
	for i := range recs {
		if err := writeJSONLine(w, &recs[i]); err != nil {
			return fmt.Errorf("grid: write jsonl row %d: %w", i, err)
		}
	}
	return nil
}

// writeJSONLine marshals v and appends a newline.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
