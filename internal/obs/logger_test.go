package obs

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/types"
)

// at is the fixed instant the golden lines are stamped with, given in a zone
// two hours east of UTC so that the ts field's conversion to UTC shows.
var at = time.Date(2026, 8, 6, 14, 0, 0, 0, time.FixedZone("UTC+2", 2*60*60))

// logAt hands l's handler one event stamped with at, if l is enabled at lv:
// what l.Log does, with the clock fixed.
func logAt(t *testing.T, l *slog.Logger, lv slog.Level, event string, args ...any) {
	t.Helper()
	ctx := context.Background()
	if !l.Enabled(ctx, lv) {
		return
	}
	r := slog.NewRecord(at, lv, event, 0)
	r.Add(args...)
	if err := l.Handler().Handle(ctx, r); err != nil {
		t.Fatal(err)
	}
}

// TestLoggerDeterministicOutput pins the line format byte for byte: the
// decide event exactly as docs/observability.md shows it, the level filter,
// and the quoting of values that would otherwise not split on spaces.
func TestLoggerDeterministicOutput(t *testing.T) {
	const decided = "ts=2026-08-06T12:00:00.000000Z level=info event=decided node=p3 instance=7 value=4 latency_us=1834\n"
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "\n"+decided) {
		t.Errorf("docs/observability.md does not show the decide line %q", decided)
	}
	const ts = "ts=2026-08-06T12:00:00.000000Z "
	var b strings.Builder
	l := NewLogger(&b, slog.LevelInfo).With("node", types.ProcessID(2))
	for _, tc := range []struct {
		lv    slog.Level
		event string
		args  []any
		want  string
	}{
		{slog.LevelInfo, "decided", []any{"instance", uint64(7), "value", int64(4), "latency_us", int64(1834)}, decided},
		{slog.LevelDebug, "dialed peer", []any{"peer", 1}, ""},
		{slog.LevelWarn, "conn failed", []any{"err", "broken pipe"},
			ts + `level=warn event="conn failed" node=p3 err="broken pipe"` + "\n"},
		{slog.LevelError, "acs check failed", []any{"err", `bad "row"`},
			ts + `level=error event="acs check failed" node=p3 err="bad \"row\""` + "\n"},
		{slog.LevelWarn, "eq", []any{"kv", "a=b", "empty", ""},
			ts + `level=warn event=eq node=p3 kv="a=b" empty=""` + "\n"},
		{slog.LevelInfo, "dial failed", []any{"backoff", 250 * time.Millisecond, "share", 0.5},
			ts + `level=info event="dial failed" node=p3 backoff=250ms share=0.5` + "\n"},
	} {
		b.Reset()
		logAt(t, l, tc.lv, tc.event, tc.args...)
		if got := b.String(); got != tc.want {
			t.Errorf("%s %s:\n got %q\nwant %q", tc.lv, tc.event, got, tc.want)
		}
	}
}

// TestLoggerLevelFilter checks a logger writes nothing below its minimum and
// every event at or above it.
func TestLoggerLevelFilter(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelWarn)
	logAt(t, l, slog.LevelDebug, "nope")
	logAt(t, l, slog.LevelInfo, "nope")
	logAt(t, l, slog.LevelWarn, "yes")
	logAt(t, l, slog.LevelError, "also")
	got := b.String()
	if strings.Contains(got, "nope") {
		t.Errorf("sub-threshold events written:\n%s", got)
	}
	if !strings.Contains(got, "level=warn event=yes") || !strings.Contains(got, "level=error event=also") {
		t.Errorf("threshold events missing:\n%s", got)
	}
}

// TestLoggerEnabled pins the guard hot call sites use: Discard, what a nil
// Log stands for, is off at every level; a live logger is off below its
// minimum and on at and above it; and a With-derived logger keeps its
// parent's minimum.
func TestLoggerEnabled(t *testing.T) {
	ctx := context.Background()
	levels := []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError}
	for _, off := range []*slog.Logger{Discard(), Discard().With("node", 1)} {
		for _, lv := range levels {
			if off.Enabled(ctx, lv) {
				t.Errorf("Discard enabled at %v", lv)
			}
		}
	}
	l := NewLogger(&strings.Builder{}, slog.LevelInfo)
	for _, l := range []*slog.Logger{l, l.With("node", 1)} {
		if l.Enabled(ctx, slog.LevelDebug) {
			t.Error("enabled below min (debug < info)")
		}
		if !l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelError) {
			t.Error("disabled at or above min")
		}
	}
}

// TestLoggerWith pins the field order: fields bound by successive With calls,
// in binding order, then the call's own.
func TestLoggerWith(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelInfo).With("node", 3).With("shard", 1)
	logAt(t, l, slog.LevelInfo, "start", "instance", 9)
	want := "ts=2026-08-06T12:00:00.000000Z level=info event=start node=3 shard=1 instance=9\n"
	if got := b.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestLoggerConcurrent checks lines never interleave: under -race this also
// exercises the mutex discipline.
func TestLoggerConcurrent(t *testing.T) {
	var b safeBuilder
	l := NewLogger(&b, slog.LevelInfo)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Info("tick", "worker", w, "i", i)
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != workers*per {
		t.Fatalf("%d lines, want %d", len(lines), workers*per)
	}
	for _, line := range lines {
		if !strings.Contains(line, "event=tick") || strings.Count(line, "ts=") != 1 {
			t.Fatalf("malformed (interleaved?) line: %q", line)
		}
	}
}

// safeBuilder is a mutex-guarded strings.Builder: the logger serializes its
// own writes, but the test's final read must also be racless.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// failingWriter fails every write while fail is set, then records lines.
type failingWriter struct {
	fail bool
	b    strings.Builder
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fail {
		return 0, errTestSink
	}
	return w.b.Write(p)
}

var errTestSink = errors.New("sink down")

// TestLoggerSurvivesWriteFailure pins the by-design error discard on the
// logger's single IO call: a failing sink must neither panic nor wedge the
// logger, and later events still reach a recovered sink.
func TestLoggerSurvivesWriteFailure(t *testing.T) {
	w := &failingWriter{fail: true}
	l := NewLogger(w, slog.LevelInfo)
	l.Info("dropped")
	w.fail = false
	l.Info("kept")
	out := w.b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "event=kept") {
		t.Errorf("logger output after sink failure = %q", out)
	}
}
