package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
)

// mpByzConfig materializes the Byzantine map of a capture config from specs,
// the same path replay uses, so capture and replay agree by construction.
func mpByzConfig(t *testing.T, specs []ByzSpec) map[types.ProcessID]mpnet.Protocol {
	t.Helper()
	m := make(map[types.ProcessID]mpnet.Protocol, len(specs))
	for _, b := range specs {
		p, err := b.MPProtocol()
		if err != nil {
			t.Fatalf("MPProtocol(%q): %v", b.Kind, err)
		}
		m[b.Proc] = p
	}
	return m
}

func smByzConfig(t *testing.T, specs []ByzSpec) map[types.ProcessID]smmem.Protocol {
	t.Helper()
	m := make(map[types.ProcessID]smmem.Protocol, len(specs))
	for _, b := range specs {
		p, err := b.SMProtocol()
		if err != nil {
			t.Fatalf("SMProtocol(%q): %v", b.Kind, err)
		}
		m[b.Proc] = p
	}
	return m
}

// roundTrip pushes a captured trace through encode -> decode -> replay and
// checks full fidelity: byte-stable encoding, identical decision stream, and
// identical verdict and record.
func roundTrip(t *testing.T, tr *Trace, rec *types.RunRecord) {
	t.Helper()
	data, err := Encode(tr)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v\nartifact:\n%s", err, data)
	}
	data2, err := Encode(dec)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("encode not canonical:\n%s\nvs\n%s", data, data2)
	}
	res, err := Replay(dec)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(res.Schedule, tr.Schedule) {
		t.Errorf("replay schedule diverged:\n got %v\nwant %v", res.Schedule, tr.Schedule)
	}
	if !reflect.DeepEqual(res.Crashes, tr.Crashes) {
		t.Errorf("replay crashes diverged:\n got %v\nwant %v", res.Crashes, tr.Crashes)
	}
	if res.Verdict != tr.Verdict {
		t.Errorf("replay verdict diverged:\n got %v\nwant %v", res.Verdict, tr.Verdict)
	}
	if rec != nil {
		if !reflect.DeepEqual(res.Record.Decisions, rec.Decisions) ||
			!reflect.DeepEqual(res.Record.Decided, rec.Decided) ||
			!reflect.DeepEqual(res.Record.Faulty, rec.Faulty) ||
			res.Record.Events != rec.Events || res.Record.Messages != rec.Messages {
			t.Errorf("replay record diverged:\n got %+v\nwant %+v", res.Record, rec)
		}
	}
}

func TestCaptureReplayMPCrash(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := mpnet.Config{
			N: 5, T: 2, K: 2,
			Inputs:      []types.Value{3, 1, 4, 1, 5},
			NewProtocol: mustMPFactory(t, ProtocolSpec{Proto: theory.ProtoFloodMin}),
			Crash:       &types.RandomCrashes{Rate: 0.4, Seed: seed},
			Seed:        seed,
		}
		tr, rec, err := CaptureMP(cfg, types.RV1, ProtocolSpec{Proto: theory.ProtoFloodMin}, nil)
		if err != nil {
			t.Fatalf("seed %d: CaptureMP: %v", seed, err)
		}
		if len(tr.Schedule) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		roundTrip(t, tr, rec)
	}
}

// TestReplayWrongProtocolIsBadTrace: an artifact whose protocol does not run
// in its model is an invalid artifact, and the error names the protocol.
func TestReplayWrongProtocolIsBadTrace(t *testing.T) {
	cfg := mpnet.Config{
		N: 4, T: 1, K: 2,
		Inputs:      []types.Value{3, 1, 4, 1},
		NewProtocol: mustMPFactory(t, ProtocolSpec{Proto: theory.ProtoFloodMin}),
		Seed:        1,
	}
	tr, _, err := CaptureMP(cfg, types.RV1, ProtocolSpec{Proto: theory.ProtoFloodMin}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Protocol = ProtocolSpec{Proto: theory.ProtoE}
	_, err = Replay(tr)
	if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), theory.ProtoE.String()) {
		t.Errorf("Replay of a message-passing artifact naming %s: err = %v, want ErrBadTrace naming it", theory.ProtoE, err)
	}
}

func TestCaptureReplayMPByzantine(t *testing.T) {
	specs := []ByzSpec{
		{Proc: 4, Kind: ByzPersonaInput, Personas: []types.Value{0, 1, 0, 1, 0, 1}, Default: 7},
		{Proc: 5, Kind: ByzRandomNoise, Burst: 2, Max: 64},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := mpnet.Config{
			N: 6, T: 2, K: 2,
			Inputs:      []types.Value{2, 2, 3, 3, 0, 0},
			NewProtocol: mustMPFactory(t, ProtocolSpec{Proto: theory.ProtoC, Ell: 2}),
			Byzantine:   mpByzConfig(t, specs),
			Seed:        seed,
		}
		tr, rec, err := CaptureMP(cfg, types.SV1, ProtocolSpec{Proto: theory.ProtoC, Ell: 2}, specs)
		if err != nil {
			t.Fatalf("seed %d: CaptureMP: %v", seed, err)
		}
		roundTrip(t, tr, rec)
	}
}

func TestCaptureReplaySMCrash(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		cfg := smmem.Config{
			N: 4, T: 1, K: 2,
			Inputs:      []types.Value{9, 2, 7, 2},
			NewProtocol: mustSMFactory(t, ProtocolSpec{Proto: theory.ProtoE}),
			Crash:       &types.RandomCrashes{Rate: 0.3, Seed: seed},
			Seed:        seed,
		}
		tr, rec, err := CaptureSM(cfg, types.RV1, ProtocolSpec{Proto: theory.ProtoE}, nil)
		if err != nil {
			t.Fatalf("seed %d: CaptureSM: %v", seed, err)
		}
		if len(tr.Schedule) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		roundTrip(t, tr, rec)
	}
}

func TestCaptureReplaySMByzantine(t *testing.T) {
	specs := []ByzSpec{{Proc: 3, Kind: ByzGarbageWriter, Rounds: 24}}
	spec := ProtocolSpec{Proto: theory.ProtoB, Sim: true}
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := smmem.Config{
			N: 4, T: 1, K: 2,
			Inputs:      []types.Value{5, 5, 6, 0},
			NewProtocol: mustSMFactory(t, spec),
			Byzantine:   smByzConfig(t, specs),
			Seed:        seed,
		}
		tr, rec, err := CaptureSM(cfg, types.RV1, spec, specs)
		if err != nil {
			t.Fatalf("seed %d: CaptureSM: %v", seed, err)
		}
		roundTrip(t, tr, rec)
	}
}

// A starved event budget is a deterministic termination violation, so the
// violation verdict path round-trips without hunting for a real attack.
func TestViolationVerdictRoundTrip(t *testing.T) {
	cfg := mpnet.Config{
		N: 4, T: 1, K: 2,
		Inputs:      []types.Value{1, 2, 3, 4},
		NewProtocol: mustMPFactory(t, ProtocolSpec{Proto: theory.ProtoFloodMin}),
		Seed:        77,
		MaxEvents:   6,
	}
	tr, rec, err := CaptureMP(cfg, types.RV1, ProtocolSpec{Proto: theory.ProtoFloodMin}, nil)
	if err != nil {
		t.Fatalf("CaptureMP: %v", err)
	}
	if tr.Verdict.OK || tr.Verdict.Condition != "termination" {
		t.Fatalf("want termination violation, got %v", tr.Verdict)
	}
	roundTrip(t, tr, rec)
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, _, err := CaptureMP(mpnet.Config{
		N: 3, T: 1, K: 1,
		Inputs:      []types.Value{1, 1, 1},
		NewProtocol: mustMPFactory(t, ProtocolSpec{Proto: theory.ProtoFloodMin}),
		Seed:        1,
	}, types.RV1, ProtocolSpec{Proto: theory.ProtoFloodMin}, nil)
	if err != nil {
		t.Fatalf("CaptureMP: %v", err)
	}
	data, err := Encode(good)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	text := string(data)
	cases := map[string]string{
		"empty":            "",
		"bad header":       strings.Replace(text, "ksettrace v2", "ksettrace v9", 1),
		"t above n":        strings.Replace(text, "\nt 1\n", "\nt 4\n", 1),
		"missing end":      strings.TrimSuffix(text, "end\n"),
		"trailing junk":    text + "junk\n",
		"bad model":        strings.Replace(text, "model mp/cr", "model carrier-pigeon", 1),
		"bad n":            strings.Replace(text, "n 3", "n x", 1),
		"inputs mismatch":  strings.Replace(text, "inputs 1,1,1", "inputs 1,1", 1),
		"bad verdict":      strings.Replace(text, "verdict ok", "verdict shrug", 1),
		"unsorted fields":  strings.Replace(text, "validity rv1\nn 3", "n 3\nvalidity rv1", 1),
		"byz out of range": strings.Replace(text, "inputs 1,1,1\n", "inputs 1,1,1\nbyz 9 silent\n", 1),
		"crash wrong kind": strings.Replace(text, "inputs 1,1,1\n", "inputs 1,1,1\ncrash 1 at-op 2\n", 1),
		// Spellings strconv reads but Encode never writes.
		"ell leading zero":   strings.Replace(text, "protocol floodmin", "protocol c ell=02", 1),
		"crash leading zero": strings.Replace(text, "inputs 1,1,1\n", "inputs 1,1,1\ncrash 1 at-event 07\n", 1),
		"repeated k":         strings.Replace(text, "k 1\n", "k 1\nk 1\n", 1),
		"unknown line":       strings.Replace(text, "inputs 1,1,1\n", "inputs 1,1,1\nfoo bar\n", 1),
		"crlf":               strings.ReplaceAll(text, "\n", "\r\n"),
	}
	for _, r := range respellings {
		cases[strings.TrimSpace(r[1])] = strings.Replace(text, r[0], r[1], 1)
	}
	for name, in := range cases {
		if in == text {
			t.Fatalf("%s: the case does not change the artifact", name)
		}
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		}
	}
	// The same content spelled as Encode writes it decodes, so the rows
	// above fail on their spelling alone.
	for _, in := range []string{
		strings.Replace(text, "protocol floodmin", "protocol c ell=2", 1),
		strings.Replace(text, "inputs 1,1,1\n", "inputs 1,1,1\ncrash 1 at-event 7\n", 1),
	} {
		if _, err := Decode([]byte(in)); err != nil {
			t.Errorf("Decode rejected a canonical artifact: %v\n%s", err, in)
		}
	}
	// The error names the first line that differs and its canonical form,
	// or an artifact's format version when it is not this one.
	for in, want := range map[string]string{
		strings.Replace(text, "\nn 3\n", "\nn 03\n", 1):          `line 4 is "n 03", canonical "n 3"`,
		strings.Replace(text, "ksettrace v2", "ksettrace v1", 1): "unsupported version 1",
	} {
		if _, err := Decode([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Decode error %v, want it to contain %s", err, want)
		}
	}
}

// TestProtocolSpecFactories: each factory builds every protocol of its
// model, and refuses a spec of the other model, an impossible cell's spec
// and Protocol C without l.
func TestProtocolSpecFactories(t *testing.T) {
	impossible := SpecFor(theory.Result{Status: theory.Impossible})
	for _, c := range []struct {
		spec   ProtocolSpec
		mp, sm bool
	}{
		{ProtocolSpec{Proto: theory.ProtoTrivial}, true, false},
		{ProtocolSpec{Proto: theory.ProtoFloodMin}, true, false},
		{ProtocolSpec{Proto: theory.ProtoA}, true, false},
		{ProtocolSpec{Proto: theory.ProtoB}, true, false},
		{ProtocolSpec{Proto: theory.ProtoC, Ell: 1}, true, false},
		{ProtocolSpec{Proto: theory.ProtoC}, false, false},
		{ProtocolSpec{Proto: theory.ProtoD}, true, false},
		{ProtocolSpec{Proto: theory.ProtoE}, false, true},
		{ProtocolSpec{Proto: theory.ProtoF}, false, true},
		{ProtocolSpec{Proto: theory.ProtoB, Sim: true}, false, true},
		{ProtocolSpec{Proto: theory.ProtoC, Sim: true}, false, false},
		{impossible, false, false},
	} {
		mpf, err := c.spec.MPFactory()
		if (err == nil) != c.mp || (err == nil && mpf(0) == nil) {
			t.Errorf("%+v: MPFactory err = %v, want accepted %v and a protocol", c.spec, err, c.mp)
		}
		smf, err := c.spec.SMFactory()
		if (err == nil) != c.sm || (err == nil && smf(1) == nil) {
			t.Errorf("%+v: SMFactory err = %v, want accepted %v and a protocol", c.spec, err, c.sm)
		}
	}
}

func mustMPFactory(t *testing.T, s ProtocolSpec) func(types.ProcessID) mpnet.Protocol {
	t.Helper()
	f, err := s.MPFactory()
	if err != nil {
		t.Fatalf("MPFactory: %v", err)
	}
	return f
}

func mustSMFactory(t *testing.T, s ProtocolSpec) func(types.ProcessID) smmem.Protocol {
	t.Helper()
	f, err := s.SMFactory()
	if err != nil {
		t.Fatalf("SMFactory: %v", err)
	}
	return f
}
