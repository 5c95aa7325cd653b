package obs

import (
	"io"
	"log/slog"
	"math"
	"strings"
)

// NewLogger returns the cluster's structured event log: a slog text handler
// writing events at or above min to w, one line per event, machine-splittable
// on spaces:
//
//	ts=2026-08-06T12:00:00.000000Z level=info event=decided node=p3 instance=7
//
// The line is slog's own with its three built-in attributes renamed and
// reformatted: the time as ts in UTC with microseconds, the level in lower
// case, and the message as event. Bound fields (Logger.With) follow event,
// then the call's fields. The handler writes each line with one Write under
// its own mutex, so lines from concurrent goroutines never interleave.
func NewLogger(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: min, ReplaceAttr: lineFormat}))
}

// Discard returns a logger that is never enabled: what a nil Log in a cluster
// or ACS config stands for.
func Discard() *slog.Logger { return NewLogger(io.Discard, slog.Level(math.MaxInt)) }

// lineFormat rewrites slog's built-in time, level and message attributes
// into the ts=, level= and event= fields of the line format.
func lineFormat(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.String("ts", a.Value.Time().UTC().Format("2006-01-02T15:04:05.000000Z"))
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	case slog.MessageKey:
		a.Key = "event"
	}
	return a
}
