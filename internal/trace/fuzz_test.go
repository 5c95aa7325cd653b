package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kset/internal/theory"
	"kset/internal/types"
)

// seedArtifacts returns encoded traces used to seed both fuzz targets: a
// couple of hand-built artifacts covering both communication media, plus
// every checked-in corpus file.
func seedArtifacts(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	mp := &Trace{
		Version: Version, Model: types.MPByz, Validity: types.RV1,
		N: 3, K: 2, T: 1, Seed: 7,
		Protocol:  ProtocolSpec{Proto: theory.ProtoFloodMin},
		Inputs:    []types.Value{1, 2, 3},
		Byzantine: []ByzSpec{{Proc: 2, Kind: ByzSilent}},
		Schedule:  []int{3, 1, 2},
		Verdict:   Verdict{OK: true},
	}
	data, err := Encode(mp)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, data)
	sm := &Trace{
		Version: Version, Model: types.SMCR, Validity: types.WV1,
		N: 2, K: 2, T: 1, Seed: 9,
		Protocol: ProtocolSpec{Proto: theory.ProtoE},
		Inputs:   []types.Value{5, 5},
		Crashes:  []types.CrashPoint{{Proc: 1, Kind: types.CrashAtOp, Index: 4}},
		Schedule: []int{0, 1, 0},
		Verdict:  Verdict{OK: false, Condition: "termination", Detail: "stalled"},
	}
	if data, err = Encode(sm); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, data)
	paths, _ := filepath.Glob("../../testdata/traces/*.ktr")
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			seeds = append(seeds, data)
		}
	}
	return seeds
}

// respellings turn a canonical artifact with n = 3 whose inputs start with 1
// into spellings strconv reads but Encode never writes.
var respellings = [][2]string{
	{"\nn 3\n", "\nn 03\n"},
	{"\nn 3\n", "\nn +3\n"},
	{"halt-on-decide false", "halt-on-decide 0"},
	{"halt-on-decide false", "halt-on-decide F"},
	{"\ninputs 1,", "\ninputs 01,"},
}

// respelled returns the respellings of a canonical artifact.
func respelled(f *testing.F, canonical []byte) [][]byte {
	f.Helper()
	var out [][]byte
	for _, r := range respellings {
		s := bytes.Replace(canonical, []byte(r[0]), []byte(r[1]), 1)
		if bytes.Equal(s, canonical) {
			f.Fatalf("respelling %q does not apply", r[1])
		}
		out = append(out, s)
	}
	return out
}

// FuzzTraceDecode asserts Decode never panics and that anything it accepts
// passes Validate and re-encodes.
func FuzzTraceDecode(f *testing.F) {
	seeds := seedArtifacts(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Add([]byte("ksettrace v1\n"))
	f.Add([]byte(""))
	for _, s := range respelled(f, seeds[0]) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Decode accepted an invalid trace: %v", err)
		}
		if _, err := Encode(tr); err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
	})
}

// FuzzTraceRoundTrip asserts the codec is a bijection on its accepted set:
// Decode accepts exactly the bytes Encode writes, so encode(decode(x)) is x
// byte for byte, and decoding that again yields the identical structure.
func FuzzTraceRoundTrip(f *testing.F) {
	seeds := seedArtifacts(f)
	for _, s := range append(seeds, respelled(f, seeds[0])...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Encode(tr)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("Decode accepted bytes Encode does not write:\n%q\nvs\n%q", data, enc)
		}
		tr2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\n%#v\nvs\n%#v", tr, tr2)
		}
	})
}

// FuzzReplaySchedule replays the corpus artifacts under fuzzed schedules, one
// entry per byte. Every list of non-negative entries is a schedule, so
// Replay never fails; and the run a schedule chooses is re-recorded
// exactly, so replaying the re-recorded schedule and crash points yields the
// same schedule, crashes, record and verdict.
func FuzzReplaySchedule(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/traces/*.ktr")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus artifacts (%v)", err)
	}
	var corpus []*Trace
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := Decode(data)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		corpus = append(corpus, tr)
		sched := make([]byte, len(tr.Schedule))
		for j, e := range tr.Schedule {
			sched[j] = byte(e)
		}
		f.Add(uint8(i), sched)
	}
	f.Fuzz(func(t *testing.T, which uint8, sched []byte) {
		tr := *corpus[int(which)%len(corpus)]
		tr.Schedule = make([]int, len(sched))
		for i, b := range sched {
			tr.Schedule[i] = int(b)
		}
		first, err := Replay(&tr)
		if err != nil {
			t.Fatalf("Replay of schedule %v: %v", tr.Schedule, err)
		}
		tr.Schedule, tr.Crashes = first.Schedule, first.Crashes
		again, err := Replay(&tr)
		if err != nil {
			t.Fatalf("Replay of the re-recorded schedule: %v", err)
		}
		if !reflect.DeepEqual(again.Schedule, first.Schedule) || !reflect.DeepEqual(again.Crashes, first.Crashes) {
			t.Fatalf("re-recorded schedule does not replay exactly:\n got %v %v\nwant %v %v",
				again.Schedule, again.Crashes, first.Schedule, first.Crashes)
		}
		if again.Verdict != first.Verdict || !reflect.DeepEqual(again.Record, first.Record) {
			t.Fatalf("re-recorded schedule changes the run:\n got %v %+v\nwant %v %+v",
				again.Verdict, again.Record, first.Verdict, first.Record)
		}
	})
}
