package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// pinnedClock returns a clock that advances one millisecond per call,
// starting from a fixed instant — the determinism hook the Logger contract
// promises tests.
func pinnedClock() func() time.Time {
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * time.Millisecond)
		n++
		return t
	}
}

func TestLoggerDeterministicOutput(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.SetNow(pinnedClock())
	l.Info("dial", F("peer", 2), F("addr", "127.0.0.1:7000"))
	l.Warn("conn failed", F("err", "broken pipe"))
	l.Debug("retransmit", F("seq", 17))

	want := "ts=2026-08-06T12:00:00.000000Z level=info event=dial peer=2 addr=127.0.0.1:7000\n" +
		"ts=2026-08-06T12:00:00.001000Z level=warn event=\"conn failed\" err=\"broken pipe\"\n" +
		"ts=2026-08-06T12:00:00.002000Z level=debug event=retransmit seq=17\n"
	if got := b.String(); got != want {
		t.Errorf("log output:\n%q\nwant:\n%q", got, want)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelWarn)
	l.SetNow(pinnedClock())
	l.Debug("nope")
	l.Info("nope")
	l.Warn("yes")
	l.Error("also")
	got := b.String()
	if strings.Contains(got, "nope") {
		t.Errorf("sub-threshold events written:\n%s", got)
	}
	if !strings.Contains(got, "event=yes") || !strings.Contains(got, "event=also") {
		t.Errorf("threshold events missing:\n%s", got)
	}
}

// TestLoggerEnabled pins the guard hot call sites use: a nil logger is off
// at every level, a live one is off below its minimum and on at and above
// it, and a With-derived logger keeps the parent's minimum.
func TestLoggerEnabled(t *testing.T) {
	var off *Logger
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		if off.Enabled(lv) {
			t.Errorf("nil logger enabled at %v", lv)
		}
	}
	l := NewLogger(&strings.Builder{}, LevelInfo)
	for _, l := range []*Logger{l, l.With(F("node", 1))} {
		if l.Enabled(LevelDebug) {
			t.Error("enabled below min (debug < info)")
		}
		if !l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
			t.Error("disabled at or above min")
		}
	}
}

func TestLoggerWith(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.SetNow(pinnedClock())
	node := l.With(F("node", 3))
	node.Info("start", F("instance", 9))
	want := "ts=2026-08-06T12:00:00.000000Z level=info event=start node=3 instance=9\n"
	if got := b.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestLoggerNil(t *testing.T) {
	var l *Logger
	l.Info("ignored", F("k", "v")) // must not panic
	l.SetNow(time.Now)
	if l.With(F("a", 1)) != nil {
		t.Error("nil logger With returned non-nil")
	}
}

// TestLoggerConcurrent checks lines never interleave: under -race this also
// exercises the mutex discipline.
func TestLoggerConcurrent(t *testing.T) {
	var b safeBuilder
	l := NewLogger(&b, LevelInfo)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Info("tick", F("worker", w), F("i", i))
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

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, " error ": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud): expected error")
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
	l := NewLogger(w, LevelInfo)
	l.SetNow(pinnedClock())
	l.Info("dropped")
	w.fail = false
	l.Info("kept")
	out := w.b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "event=kept") {
		t.Errorf("logger output after sink failure = %q", out)
	}
}
