package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// newLogger builds a structured logger writing to w at the given level
// ("debug", "info", "warn", "error"), as logfmt text or JSON, and installs
// it as slog.Default so library code logging via the default logger agrees
// with the binary's configuration.
func newLogger(w io.Writer, level string, json bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l, nil
}

// Listener is what lshensembled and lshrouter share: Main, their command
// line and exit statuses, and Run, their listener's life from bind to
// graceful shutdown.
type Listener struct {
	addr, debugAddr, logLevel     string
	logJSON                       bool
	readHeader, read, write, idle time.Duration
}

// flags registers -addr (defaulting to addr), the four slowloris limits,
// -log-level, -log-json and -debug-addr on fs.
func (l *Listener) flags(fs *flag.FlagSet, addr string) {
	fs.StringVar(&l.addr, "addr", addr, "listen address")
	fs.DurationVar(&l.readHeader, "read-header-timeout", 10*time.Second, "time limit for reading request headers (slowloris guard)")
	fs.DurationVar(&l.read, "read-timeout", time.Minute, "time limit for reading an entire request, body included")
	fs.DurationVar(&l.write, "write-timeout", 2*time.Minute, "time limit for writing a response")
	fs.DurationVar(&l.idle, "idle-timeout", 2*time.Minute, "keep-alive idle connection limit")
	fs.StringVar(&l.logLevel, "log-level", "info", "log level: debug, info, warn, error (debug includes per-request access logs)")
	fs.BoolVar(&l.logJSON, "log-json", false, "emit logs as JSON instead of logfmt text")
	fs.StringVar(&l.debugAddr, "debug-addr", "", "separate debug listener with /debug/pprof/ and a /metrics mirror (empty disables; keep off public interfaces)")
}

// Main runs a serving binary: it parses args (the program name first) into
// the listener's flags, -addr defaulting to addr, and those define registers,
// then calls run with the logger -log-level and -log-json ask for. It returns
// the process exit status: 0 after run or -h, 2 for a bad flag, and 1 when
// run fails, after logging why.
func (l *Listener) Main(args []string, stderr io.Writer, addr string, define func(*flag.FlagSet), run func(*slog.Logger) error) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	l.flags(fs, addr)
	define(fs)
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	logger, err := newLogger(stderr, l.logLevel, l.logJSON)
	if err == nil {
		err = run(logger)
	}
	if err != nil {
		// log reaches the logger newLogger installed, or stderr when it
		// refused -log-level.
		log.Print(err)
		return 1
	}
	return 0
}

// Run binds -addr, logs msg with the bound address and attrs — so -addr :0
// names the port it got — and serves h until ctx ends or SIGINT or SIGTERM
// arrives; it then shuts the server down, giving requests in flight 10 s.
// -debug-addr, when set, serves the pprof suite under /debug/pprof/ and a
// /metrics mirror of reg alongside for as long. A bind that fails on either
// listener aborts start-up.
func (l *Listener) Run(ctx context.Context, h http.Handler, reg *Registry, logger *slog.Logger, msg string, attrs ...any) error {
	if l.debugAddr != "" {
		ln, err := net.Listen("tcp", l.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		// Profiles and heap dumps never ride the port exposed to clients.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /metrics", reg.Handler())
		dbg := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go dbg.Serve(ln)
		defer dbg.Close()
		logger.Info("debug listener up", "addr", ln.Addr().String())
	}
	ln, err := net.Listen("tcp", l.addr)
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	srv := &http.Server{
		Handler: h,
		// Without these limits a slowloris client — one that trickles header
		// or body bytes forever — pins a connection (and its goroutine) for
		// the life of the process.
		ReadHeaderTimeout: l.readHeader,
		ReadTimeout:       l.read,
		WriteTimeout:      l.write,
		IdleTimeout:       l.idle,
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	errc := make(chan error, 1)
	logger.Info(msg, append([]any{"addr", ln.Addr().String()}, attrs...)...)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
	case <-ctx.Done():
		logger.Info("shutting down", "cause", context.Cause(ctx))
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		logger.Warn("shutdown", "error", err)
	}
	return nil
}
