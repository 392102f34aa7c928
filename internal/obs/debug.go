package obs

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

// NewLogger builds a structured logger writing to stderr at the given level
// ("debug", "info", "warn", "error"), as logfmt text or JSON, and installs
// it as slog.Default so library code logging via the default logger agrees
// with the binary's configuration.
func NewLogger(level string, json bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l, nil
}

// NewDebugMux builds the handler for a binary's debug listener: the pprof
// suite under /debug/pprof/ plus a /metrics mirror of reg.
// The debug listener is separate from the serving listener on purpose —
// profiles and heap dumps should never ride the port exposed to clients.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", reg.Handler())
	return mux
}

// StartDebugServer binds the debug listener and serves NewDebugMux(reg) on
// it in the background. It returns a stop function — a no-op when addr is
// empty (debug listener disabled) — and fails fast when the bind fails, so
// a typo'd -debug-addr aborts startup instead of silently serving nothing.
func StartDebugServer(addr string, reg *Registry, logger *slog.Logger) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	if logger == nil {
		logger = slog.Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	logger.Info("debug listener up", "addr", ln.Addr().String())
	return func() { srv.Close() }, nil
}
