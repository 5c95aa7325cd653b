package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int8

// Levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// ParseLevel maps a level name to its Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// Logger is a structured, leveled event log. Each event is one line of
// `key=value` pairs: a timestamp, the level, the event name, any fields bound
// with With, then the call's fields — always in that order, so output is
// deterministic given a pinned clock (tests pin one with SetNow). A mutex
// serializes lines, so events from concurrent goroutines never interleave
// mid-line. A nil *Logger discards everything.
type Logger struct {
	mu     *sync.Mutex
	w      io.Writer
	min    Level
	now    func() time.Time
	prefix string // pre-rendered bound fields
}

// NewLogger returns a logger writing events at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, min: min, now: time.Now}
}

// SetNow replaces the logger's clock; tests pin it for byte-stable output.
func (l *Logger) SetNow(now func() time.Time) {
	if l != nil {
		l.now = now
	}
}

// With returns a logger that prepends the given fields to every event. The
// derived logger shares the parent's writer, mutex, clock, and level.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString(l.prefix)
	writeFields(&b, fields)
	return &Logger{mu: l.mu, w: l.w, min: l.min, now: l.now, prefix: b.String()}
}

// Field is one key=value pair of an event.
type Field struct {
	Key string
	Val any
}

// F builds a field.
func F(key string, val any) Field { return Field{Key: key, Val: val} }

// Enabled reports whether an event at level lv would be written: false on a
// nil logger and below its minimum level. A caller guards a hot event with
// it so that building the fields costs nothing when nobody listens.
func (l *Logger) Enabled(lv Level) bool { return l != nil && lv >= l.min }

// Debug logs an event at debug level.
func (l *Logger) Debug(event string, fields ...Field) { l.log(LevelDebug, event, fields) }

// Info logs an event at info level.
func (l *Logger) Info(event string, fields ...Field) { l.log(LevelInfo, event, fields) }

// Warn logs an event at warn level.
func (l *Logger) Warn(event string, fields ...Field) { l.log(LevelWarn, event, fields) }

// Error logs an event at error level.
func (l *Logger) Error(event string, fields ...Field) { l.log(LevelError, event, fields) }

func (l *Logger) log(lv Level, event string, fields []Field) {
	if !l.Enabled(lv) {
		return
	}
	var b strings.Builder
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000000Z"))
	b.WriteString(" level=")
	b.WriteString(lv.String())
	b.WriteString(" event=")
	b.WriteString(quoteIfNeeded(event))
	b.WriteString(l.prefix)
	writeFields(&b, fields)
	b.WriteByte('\n')
	l.mu.Lock()
	// The line is fully rendered before the lock is taken; the mutex exists
	// solely to serialize this one write so concurrent events never
	// interleave mid-line. A logger cannot log its own write failure, so the
	// error is discarded by design.
	//ksetlint:allow lockheldio.io the mutex guards nothing but this write; serializing it is its entire purpose
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

func writeFields(b *strings.Builder, fields []Field) {
	for _, f := range fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(fmt.Sprint(f.Val)))
	}
}

// quoteIfNeeded quotes values containing spaces, quotes, or '=' so lines
// stay machine-splittable on spaces.
func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \t\n\"=") || s == "" {
		return fmt.Sprintf("%q", s)
	}
	return s
}
