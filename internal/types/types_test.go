package types

import (
	"errors"
	"strings"
	"testing"
)

func TestProcessIDStringUsesPaperConvention(t *testing.T) {
	if got := ProcessID(0).String(); got != "p1" {
		t.Errorf("ProcessID(0) = %q, want p1", got)
	}
	if got := ProcessID(63).String(); got != "p64" {
		t.Errorf("ProcessID(63) = %q, want p64", got)
	}
}

func TestParseModel(t *testing.T) {
	cases := map[string]Model{
		"mp/cr":  MPCR,
		"MP/CR":  MPCR,
		"mp/byz": MPByz,
		"sm/cr":  SMCR,
		"SM/Byz": SMByz,
	}
	for in, want := range cases {
		got, err := ParseModel(in)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseModel("tcp/ip"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("ParseModel(tcp/ip) err = %v, want ErrUnknownModel", err)
	}
}

func TestParseValidityRoundTrips(t *testing.T) {
	for _, v := range AllValidities() {
		got, err := ParseValidity(v.String())
		if err != nil || got != v {
			t.Errorf("ParseValidity(%q) = %v, %v", v.String(), got, err)
		}
		got, err = ParseValidity(strings.ToLower(v.String()))
		if err != nil || got != v {
			t.Errorf("ParseValidity lowercase %q failed", v.String())
		}
	}
	if _, err := ParseValidity("xv9"); !errors.Is(err, ErrUnknownValidity) {
		t.Errorf("ParseValidity(xv9) err = %v", err)
	}
}

func TestModelString(t *testing.T) {
	if MPCR.String() != "MP/CR" || SMByz.String() != "SM/Byz" {
		t.Errorf("model strings wrong: %v %v", MPCR, SMByz)
	}
	if len(AllModels()) != 4 {
		t.Errorf("AllModels() = %v, want 4 models", AllModels())
	}
}

func TestCheckModelAndValidity(t *testing.T) {
	for _, m := range AllModels() {
		if err := CheckModel(m); err != nil {
			t.Errorf("CheckModel(%v) = %v", m, err)
		}
	}
	for _, m := range []Model{{}, {MessagePassing, 0}, {SharedMemory, 3}, {3, Crash}} {
		if err := CheckModel(m); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("CheckModel(%v) = %v, want ErrUnknownModel", m, err)
		}
	}
	for _, v := range AllValidities() {
		if err := CheckValidity(v); err != nil {
			t.Errorf("CheckValidity(%v) = %v", v, err)
		}
	}
	for _, v := range []Validity{0, WV2 + 1, 255} {
		if err := CheckValidity(v); !errors.Is(err, ErrUnknownValidity) {
			t.Errorf("CheckValidity(%v) = %v, want ErrUnknownValidity", v, err)
		}
	}
}

func TestPayloadString(t *testing.T) {
	p := Payload{Kind: KindEcho, Value: 5, Origin: 2}
	if got := p.String(); got != "echo(5 from p3)" {
		t.Errorf("payload string = %q", got)
	}
	q := Payload{Kind: KindInput, Value: -3}
	if got := q.String(); got != "input(-3)" {
		t.Errorf("payload string = %q", got)
	}
}

func newTestRecord() *RunRecord {
	return &RunRecord{
		N: 4, T: 2, K: 2,
		Model:     MPCR,
		Inputs:    []Value{3, 1, 3, 2},
		Faulty:    []bool{false, true, false, false},
		Decided:   []bool{true, false, true, true},
		Decisions: []Value{3, 0, 5, 3},
	}
}

func TestRunRecordSets(t *testing.T) {
	r := newTestRecord()
	if got := r.FaultCount(); got != 1 {
		t.Errorf("FaultCount = %d", got)
	}
	if got := r.CorrectDecisions(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("CorrectDecisions = %v, want [3 5]", got)
	}
	if got := r.AllDecisions(); len(got) != 2 {
		t.Errorf("AllDecisions = %v (p2 undecided must be excluded)", got)
	}
	if got := r.CountCorrectDecisions(); got != 2 {
		t.Errorf("CountCorrectDecisions = %d, want 2", got)
	}
}

func TestRunRecordValidate(t *testing.T) {
	r := newTestRecord()
	if err := r.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	r.T = 0
	if err := r.Validate(); err == nil {
		t.Error("fault count above t accepted")
	}
	r2 := newTestRecord()
	r2.Inputs = r2.Inputs[:2]
	if err := r2.Validate(); err == nil {
		t.Error("mismatched input length accepted")
	}
	r3 := &RunRecord{}
	if err := r3.Validate(); err == nil {
		t.Error("empty record accepted")
	}
}

func TestRunRecordString(t *testing.T) {
	r := newTestRecord()
	s := r.String()
	for _, want := range []string{"MP/CR", "n=4", "t=2", "k=2", "f=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("record string %q missing %q", s, want)
		}
	}
	r.BudgetExhausted = true
	if !strings.Contains(r.String(), "BUDGET-EXHAUSTED") {
		t.Error("budget marker missing")
	}
}
