package trace

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"kset/internal/theory"
	"kset/internal/types"
)

// The canonical text format, line by line and in this exact order:
//
//	ksettrace v2
//	model mp/byz
//	validity sv1
//	n 6
//	k 2
//	t 1
//	seed 12345
//	budget 0
//	halt-on-decide false
//	protocol c ell=2
//	inputs 3,1,4,1,5,-1
//	byz 5 persona-echo default=0 personas=0,1,0,1,0,1
//	crash 2 at-event 7
//	schedule 0,4,2,9,...            (chunks of scheduleChunk entries)
//	verdict violation agreement correct processes decided ...
//	end
//
// byz and crash lines are sorted by process id and appear zero or more
// times; schedule lines appear zero or more times and concatenate. Every
// other line appears exactly once, in order. Encode is the one statement of
// the format, and it is canonical: two equal artifacts encode to identical
// bytes. Decode accepts exactly the bytes Encode writes — it parses each
// line by its keyword, validates, re-encodes and compares — so a line out of
// order, repeated, missing, unknown or spelled any other way ("n 05",
// "halt-on-decide 0", a CRLF line end) is rejected.

// scheduleChunk is how many schedule entries go on one line, keeping
// artifacts diffable without making them tall.
const scheduleChunk = 16

// Encode renders the artifact in the canonical text format. It fails if the
// artifact does not Validate, so every encoded artifact is well-formed.
func Encode(t *Trace) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ksettrace v%d\n", t.Version)
	fmt.Fprintf(&b, "model %s\n", strings.ToLower(t.Model.String()))
	fmt.Fprintf(&b, "validity %s\n", strings.ToLower(t.Validity.String()))
	fmt.Fprintf(&b, "n %d\n", t.N)
	fmt.Fprintf(&b, "k %d\n", t.K)
	fmt.Fprintf(&b, "t %d\n", t.T)
	fmt.Fprintf(&b, "seed %d\n", t.Seed)
	fmt.Fprintf(&b, "budget %d\n", t.Budget)
	fmt.Fprintf(&b, "halt-on-decide %t\n", t.HaltOnDecide)
	tok := t.Protocol.Proto.Token()
	if tok == "" {
		return nil, fmt.Errorf("%w: protocol %v has no token", ErrBadTrace, t.Protocol.Proto)
	}
	b.WriteString("protocol " + tok)
	if t.Protocol.Ell != 0 {
		fmt.Fprintf(&b, " ell=%d", t.Protocol.Ell)
	}
	if t.Protocol.Sim {
		b.WriteString(" sim")
	}
	b.WriteByte('\n')
	b.WriteString("inputs ")
	writeList(&b, t.Inputs)
	b.WriteByte('\n')
	for _, bz := range t.Byzantine {
		if err := encodeByz(&b, bz); err != nil {
			return nil, err
		}
	}
	for _, c := range t.Crashes {
		fmt.Fprintf(&b, "crash %d %s %d\n", c.Proc, c.Kind, c.Index)
	}
	for i := 0; i < len(t.Schedule); i += scheduleChunk {
		end := i + scheduleChunk
		if end > len(t.Schedule) {
			end = len(t.Schedule)
		}
		b.WriteString("schedule ")
		writeList(&b, t.Schedule[i:end])
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "verdict %s\n", t.Verdict)
	b.WriteString("end\n")
	return []byte(b.String()), nil
}

func encodeByz(b *strings.Builder, bz ByzSpec) error {
	fmt.Fprintf(b, "byz %d %s", bz.Proc, bz.Kind)
	switch bz.Kind {
	case ByzSilent, ByzSimSilent:
	case ByzPersonaInput, ByzPersonaEcho, ByzSimPersonaInput, ByzSimPersonaEcho:
		fmt.Fprintf(b, " default=%d personas=", bz.Default)
		writeList(b, bz.Personas)
	case ByzEchoSplitter:
		fmt.Fprintf(b, " shift=%d", bz.Shift)
	case ByzRandomNoise:
		fmt.Fprintf(b, " burst=%d max=%d", bz.Burst, bz.Max)
	case ByzGarbageWriter:
		fmt.Fprintf(b, " rounds=%d", bz.Rounds)
	default:
		return fmt.Errorf("%w: unknown Byzantine kind %q", ErrBadTrace, bz.Kind)
	}
	b.WriteByte('\n')
	return nil
}

func writeList[T ~int | ~int64](b *strings.Builder, vs []T) {
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
}

// Decode parses an artifact. Each line is read by its keyword into a Trace,
// leniently; the result must Validate and Encode to the input byte for byte,
// so Decode accepts exactly the bytes Encode writes, and its error names the
// first line that differs. It never panics, and it allocates only what the
// input's size bounds: Validate checks len(Inputs) == N before it sizes
// anything by N.
func Decode(data []byte) (*Trace, error) {
	t := &Trace{Version: Version}
	for i, line := range strings.Split(string(data), "\n") {
		key, rest, _ := strings.Cut(line, " ")
		if err := t.parseLine(key, rest); err != nil {
			return nil, fmt.Errorf("%w: line %d: bad %s: %v", ErrBadTrace, i+1, key, err)
		}
	}
	enc, err := Encode(t)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, data) {
		// data and enc agree before byte i, so the line holding it starts
		// at the same offset in both.
		i := 0
		for i < len(data) && i < len(enc) && data[i] == enc[i] {
			i++
		}
		start := bytes.LastIndexByte(data[:i], '\n') + 1
		return nil, fmt.Errorf("%w: line %d is %q, canonical %q", ErrBadTrace,
			bytes.Count(data[:start], []byte("\n"))+1, lineAt(data, start), lineAt(enc, start))
	}
	return t, nil
}

// lineAt returns the line of b that starts at byte start, without its end.
func lineAt(b []byte, start int) string {
	line, _, _ := bytes.Cut(b[start:], []byte("\n"))
	return string(line)
}

// parseLine reads one line's payload into t by its keyword. The header
// line reads the version, which Validate checks, so an artifact of another
// version is refused by its version. Unknown keywords and the end line read
// nothing: the comparison with Encode's output rejects what they get wrong.
func (t *Trace) parseLine(key, rest string) (err error) {
	switch key {
	case "ksettrace":
		t.Version, err = strconv.Atoi(strings.TrimPrefix(rest, "v"))
	case "model":
		t.Model, err = types.ParseModel(rest)
	case "validity":
		t.Validity, err = types.ParseValidity(rest)
	case "n":
		t.N, err = strconv.Atoi(rest)
	case "k":
		t.K, err = strconv.Atoi(rest)
	case "t":
		t.T, err = strconv.Atoi(rest)
	case "seed":
		t.Seed, err = strconv.ParseUint(rest, 10, 64)
	case "budget":
		t.Budget, err = strconv.Atoi(rest)
	case "halt-on-decide":
		t.HaltOnDecide, err = strconv.ParseBool(rest)
	case "protocol":
		t.Protocol, err = parseProtocol(rest)
	case "inputs":
		t.Inputs, err = parseList[types.Value](rest)
	case "byz":
		var bz ByzSpec
		bz, err = parseByz(rest)
		t.Byzantine = append(t.Byzantine, bz)
	case "crash":
		var c types.CrashPoint
		_, err = fmt.Sscanf(rest, "%d %s %d", &c.Proc, &c.Kind, &c.Index)
		t.Crashes = append(t.Crashes, c)
	case "schedule":
		var chunk []int
		chunk, err = parseList[int](rest)
		t.Schedule = append(t.Schedule, chunk...)
	case "verdict":
		t.Verdict = parseVerdict(rest)
	}
	return err
}

func parseProtocol(s string) (spec ProtocolSpec, err error) {
	fields := strings.Split(s, " ")
	var ok bool
	if spec.Proto, ok = theory.ProtocolByToken(fields[0]); !ok {
		return spec, fmt.Errorf("unknown protocol %q", fields[0])
	}
	for _, f := range fields[1:] {
		ell, isEll := strings.CutPrefix(f, "ell=")
		switch {
		case isEll:
			spec.Ell, err = strconv.Atoi(ell)
		case f == "sim":
			spec.Sim = true
		}
	}
	return spec, err
}

func parseByz(s string) (ByzSpec, error) {
	fields := strings.Split(s, " ")
	if len(fields) < 2 {
		return ByzSpec{}, fmt.Errorf("%q has no strategy", s)
	}
	pid, err := strconv.Atoi(fields[0])
	if err != nil {
		return ByzSpec{}, err
	}
	bz := ByzSpec{Proc: types.ProcessID(pid), Kind: fields[1]}
	for _, f := range fields[2:] {
		key, val, _ := strings.Cut(f, "=")
		if key == "personas" {
			if bz.Personas, err = parseList[types.Value](val); err != nil {
				return ByzSpec{}, err
			}
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return ByzSpec{}, err
		}
		switch key {
		case "default":
			bz.Default = types.Value(v)
		case "shift":
			bz.Shift = types.Value(v)
		case "burst":
			bz.Burst = int(v)
		case "max":
			bz.Max = int(v)
		case "rounds":
			bz.Rounds = int(v)
		}
	}
	return bz, nil
}

// parseVerdict inverts Verdict.String; what it cannot have come from fails
// Validate or the comparison with Encode's output.
func parseVerdict(s string) Verdict {
	if s == "ok" {
		return Verdict{OK: true}
	}
	cond, detail, _ := strings.Cut(strings.TrimPrefix(s, "violation "), " ")
	return Verdict{Condition: cond, Detail: detail}
}

// parseList reads a comma-separated list of decimal integers; "" is the
// empty list.
func parseList[T ~int | ~int64](s string) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	vs := make([]T, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		vs[i] = T(v)
	}
	return vs, nil
}
