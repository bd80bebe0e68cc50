package obs

import (
	"io"
	"log/slog"
)

// Logger is a nil-safe wrapper over log/slog: a nil *Logger drops every
// event, so instrumented code logs unconditionally and callers opt in
// by injecting one (mirroring the tracer's nil-Span discipline). The
// write path and the flight recorder emit one structured event per
// flush, quarantine, recovery, torn-tail truncation, and slow query,
// each carrying the query/flush ID so logs, metrics, and traces join
// on one key.
type Logger struct {
	s *slog.Logger
}

// NewLogger wraps an existing slog logger; nil returns nil.
func NewLogger(s *slog.Logger) *Logger {
	if s == nil {
		return nil
	}
	return &Logger{s: s}
}

// NewJSONLogger returns a Logger emitting one JSON object per line to
// w, the shape `codecdb serve -log` installs.
func NewJSONLogger(w io.Writer) *Logger {
	return &Logger{s: slog.New(slog.NewJSONHandler(w, nil))}
}

// With returns a Logger whose events all carry the given attrs.
// Nil-safe: nil stays nil.
func (l *Logger) With(args ...any) *Logger {
	if l == nil || l.s == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...)}
}

// Info logs at info level. Nil-safe.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil || l.s == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn logs at warn level. Nil-safe.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil || l.s == nil {
		return
	}
	l.s.Warn(msg, args...)
}

// Error logs at error level. Nil-safe.
func (l *Logger) Error(msg string, args ...any) {
	if l == nil || l.s == nil {
		return
	}
	l.s.Error(msg, args...)
}
