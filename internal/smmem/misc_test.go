package smmem

import (
	"errors"
	"strings"
	"testing"

	"kset/internal/types"
)

func TestSMTraceEventStrings(t *testing.T) {
	cases := []struct {
		ev   TraceEvent
		want string
	}{
		{TraceEvent{Type: EvRead, Proc: 0, Owner: 1, Register: "v",
			Payload: types.Payload{Kind: types.KindInput, Value: 3}, Present: true}, "p1 reads  p2/v"},
		{TraceEvent{Type: EvRead, Proc: 0, Owner: 1, Register: "v"}, "(unwritten)"},
		{TraceEvent{Type: EvWrite, Proc: 2, Owner: 2, Register: "v",
			Payload: types.Payload{Kind: types.KindInput, Value: 3}}, "p3 writes p3/v"},
		{TraceEvent{Type: EvDecide, Proc: 1, Value: 7}, "p2 DECIDES 7"},
		{TraceEvent{Type: EvCrash, Proc: 0}, "p1 CRASHES"},
	}
	for _, c := range cases {
		if got := c.ev.String(); !strings.Contains(got, c.want) {
			t.Errorf("rendered %q, want substring %q", got, c.want)
		}
	}
	for _, typ := range []TraceEventType{EvRead, EvWrite, EvDecide, EvCrash} {
		if strings.Contains(typ.String(), "event(") {
			t.Errorf("type %d missing a name", typ)
		}
	}
}

func TestSMRandomCrashesRespectsBudget(t *testing.T) {
	rec, err := Run(Config{
		N: 6, T: 2, K: 3,
		Inputs:      distinctInputs(6),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 4} },
		Crash:       &types.RandomCrashes{Rate: 0.5, Seed: 3},
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := rec.FaultCount(); f > 2 {
		t.Errorf("fault count %d exceeds t=2", f)
	}
}

func TestSMConfigValidation(t *testing.T) {
	newProto := func(types.ProcessID) Protocol { return protoFunc(func(api API) {}) }
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero n", Config{N: 0, K: 1, NewProtocol: newProto}, ErrBadConfig},
		{"wrong inputs", Config{N: 3, K: 1, Inputs: distinctInputs(1), NewProtocol: newProto}, ErrBadConfig},
		{"nil protocol", Config{N: 1, K: 1, Inputs: distinctInputs(1)}, ErrBadConfig},
		{"bad k", Config{N: 1, T: 0, K: 0, Inputs: distinctInputs(1), NewProtocol: newProto}, ErrBadConfig},
		{"negative max ops", Config{N: 1, K: 1, Inputs: distinctInputs(1), NewProtocol: newProto, MaxOps: -1}, ErrBadConfig},
		{"nil byz strategy", Config{
			N: 2, T: 1, K: 1, Inputs: distinctInputs(2), NewProtocol: newProto,
			Byzantine: map[types.ProcessID]Protocol{1: nil},
		}, ErrBadConfig},
		{"byz out of range", Config{
			N: 2, T: 1, K: 1, Inputs: distinctInputs(2), NewProtocol: newProto,
			Byzantine: map[types.ProcessID]Protocol{7: protoFunc(func(API) {})},
		}, ErrBadConfig},
		{"too many byz", Config{
			N: 2, T: 0, K: 1, Inputs: distinctInputs(2), NewProtocol: newProto,
			Byzantine: map[types.ProcessID]Protocol{0: protoFunc(func(API) {})},
		}, ErrFaultBudget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSMAPIAccessors(t *testing.T) {
	var gotN, gotT, gotK int
	var gotInput types.Value
	var gotDecided bool
	rec, err := Run(Config{
		N: 3, T: 1, K: 2,
		Inputs: distinctInputs(3),
		NewProtocol: func(id types.ProcessID) Protocol {
			return protoFunc(func(api API) {
				if api.ID() == 1 {
					gotN, gotT, gotK = api.N(), api.T(), api.K()
					gotInput = api.Input()
					api.Rand().Uint64() // exercised, value irrelevant
					api.Decide(api.Input())
					gotDecided = api.HasDecided()
				} else {
					api.Decide(api.Input())
				}
				api.WriteValue("done", 0, 1)
			})
		},
		Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotN != 3 || gotT != 1 || gotK != 2 || gotInput != 2 || !gotDecided {
		t.Errorf("accessors: n=%d t=%d k=%d input=%d decided=%v", gotN, gotT, gotK, gotInput, gotDecided)
	}
	if !rec.Decided[1] || rec.Decisions[1] != 2 {
		t.Error("decision not recorded")
	}
}
