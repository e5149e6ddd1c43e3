package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strings"
	"sync/atomic"
)

// RequestIDHeader is the HTTP header a request id travels in: the
// middleware adopts an incoming value (so a caller, or an upstream
// coordinator, names the request once) and the remote backend forwards
// it to peers, correlating one request's log lines across every node.
const RequestIDHeader = "X-Request-ID"

type reqIDKey struct{}

// WithRequestID attaches a request correlation id to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the context's request id, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// rand failing is unheard of, but an id must still be unique.
		return fmt.Sprintf("req-%016x", reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// LogfLogger adapts a printf-style sink into a *slog.Logger, rendering
// each record as one logfmt-ish line ("level msg key=value …"). It
// bridges httpapi.Config.Logf onto the structured logging path.
func LogfLogger(logf func(format string, v ...any)) *slog.Logger {
	return slog.New(&logfHandler{logf: logf})
}

type logfHandler struct {
	logf  func(format string, v ...any)
	attrs []slog.Attr
	group string
}

func (h *logfHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *logfHandler) Handle(_ context.Context, rec slog.Record) error {
	var b strings.Builder
	b.WriteString(rec.Level.String())
	b.WriteByte(' ')
	b.WriteString(rec.Message)
	emit := func(a slog.Attr) {
		if a.Equal(slog.Attr{}) {
			return
		}
		key := a.Key
		if h.group != "" {
			key = h.group + "." + key
		}
		v := a.Value.Resolve().String()
		if strings.ContainsAny(v, " \"\n") {
			fmt.Fprintf(&b, " %s=%q", key, v)
		} else {
			fmt.Fprintf(&b, " %s=%s", key, v)
		}
	}
	for _, a := range h.attrs {
		emit(a)
	}
	rec.Attrs(func(a slog.Attr) bool { emit(a); return true })
	h.logf("%s", b.String())
	return nil
}

func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	n := *h
	n.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &n
}

func (h *logfHandler) WithGroup(name string) slog.Handler {
	n := *h
	if n.group != "" {
		n.group += "."
	}
	n.group += name
	return &n
}
