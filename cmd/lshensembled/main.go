// Command lshensembled serves an LSH Ensemble over HTTP as a live system:
// domains stream in and out while queries keep flowing — ingest never
// blocks a query (the index publishes atomically-swapped snapshots; see
// internal/live). The handler set lives in internal/serve; cmd/lshrouter
// shards this daemon horizontally by running N of them behind a
// consistent-hash scatter-gather router speaking the same wire protocol.
//
// Endpoints (JSON bodies unless noted):
//
//	POST /add          {"key": "t1:col", "values": ["a", "b", ...]}
//	POST /delete       {"key": "t1:col"}
//	POST /query        {"values": [...], "threshold": 0.7}
//	POST /query/topk   {"values": [...], "k": 10} → ranked {key, est_containment}
//	POST /query/batch  {"queries": [{"values": [...], "threshold": 0.7}, ...]}
//	GET  /stats        index shape: segments, buffer, tombstones, counters
//	POST /compact      full compaction, returns the new shape
//	POST /save         persist a snapshot to the -snapshot path
//	GET  /healthz      liveness probe (static {"status":"ok"}, never walks the index)
//	GET  /metrics      Prometheus text exposition
//
// /stats includes per-segment planner metadata ("segment_detail": entry
// count, size range, max partition bound, Bloom-filter bytes) and the
// aggregated "planner" counters (segments probed vs range/Bloom pruned,
// result-cache hits and misses, top-k early exits) — watch these
// to see what the query planner is saving on a given workload.
//
// With -snapshot the daemon loads the file at boot when it exists (warm
// restart) and saves on SIGINT/SIGTERM, so a rolling restart keeps the
// corpus without replaying ingest. Snapshots of every format an older daemon
// wrote (v1–v4) still load; the daemon always saves the current one (v4).
// The index file `lshed index` writes is such a snapshot: boot it with
// -snapshot index.bin -seed 0x15e4e5e3b1e.
//
// With -data-dir the index runs out-of-core: sealed segments spill to
// page-aligned files under the directory and the snapshot becomes a small
// manifest referencing them (v4, like any snapshot), written atomically on
// every save.
// When -snapshot is not given, the manifest defaults to
// <data-dir>/MANIFEST. Adding -mmap serves sealed segments directly from
// memory-mapped files — boot maps only headers and planner metadata, so a
// warm restart answers its first query without decoding the signature
// stores, and resident memory tracks the queried working set instead of the
// corpus ("resident_bytes" vs "file_bytes" per segment in /stats).
//
// Query handlers honor request cancellation: a client that disconnects (or
// a router whose per-shard deadline expires) stops the in-flight query or
// batch instead of running it to completion. A router sends its pre-sketched
// queries and writes as records on record connections instead (GET /records
// upgrades one; internal/serve lays the records out), each carrying the
// deadline its router waits for. The listener itself is
// hardened against slow clients — header reads, body reads and idle
// keep-alives all time out (-read-header-timeout, -read-timeout,
// -write-timeout, -idle-timeout), so a slowloris peer cannot pin
// connections forever.
//
// Usage:
//
//	lshensembled [-addr :7447] [-hashes 256] [-rmax 8] [-partitions 16]
//	             [-sketch minwise64] [-seed 42] [-seal 4096] [-max-segments 8]
//	             [-snapshot /var/lib/lshensembled/index.snap]
//	             [-data-dir /var/lib/lshensembled] [-mmap]
//	             [-result-cache 1024]
//	             [-read-header-timeout 10s] [-read-timeout 1m]
//	             [-write-timeout 2m] [-idle-timeout 2m]
//	             [-log-level info] [-log-json]
//	             [-slow-query 1s] [-debug-addr localhost:7547]
//
// The planner escape hatch exists for A/B measurement and debugging:
// -result-cache sets the result-cache capacity in entries (0 disables it).
//
// Observability: every request is stamped with a trace ID (an inbound
// X-Request-Id is honored, so a router-issued ID follows the request here)
// and logged at Debug; queries slower than -slow-query log at Warn with the
// planner's per-query breakdown. GET /metrics serves the zero-dependency
// Prometheus text format (see the root package doc's Observability section
// for the metric families). -debug-addr starts a separate listener with
// net/http/pprof under /debug/pprof/ and a /metrics mirror — keep it off
// public interfaces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lshensemble"
	"lshensemble/internal/obs"
	"lshensemble/internal/serve"
)

func main() {
	// All real work happens in run so its defers — most importantly
	// idx.Close, which unmaps segment files and stops the compactor — run on
	// every exit path. log.Fatalf here would skip them (os.Exit runs no
	// defers), which is exactly how the old daemon leaked mmap'd segments
	// when saving the shutdown snapshot failed.
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":7447", "listen address")
	hashes := flag.Int("hashes", 256, "MinHash signature length")
	rMax := flag.Int("rmax", 8, "LSH forest tree depth")
	partitions := flag.Int("partitions", 16, "cardinality partitions per sealed segment")
	seed := flag.Uint64("seed", 42, "hash family seed (must match across restarts and clients)")
	sketch := flag.String("sketch", "minwise64", "signature store backend: minwise64, minwise32, minwise16, minwise8 (b-bit stores trade estimate variance for 1/2–1/8th the signature bytes)")
	seal := flag.Int("seal", 4096, "buffered adds that trigger a background seal")
	maxSegments := flag.Int("max-segments", 8, "sealed segments above which the compactor merges")
	snapshot := flag.String("snapshot", "", "snapshot file: loaded at boot if present, saved on shutdown and POST /save (defaults to <data-dir>/MANIFEST when -data-dir is set)")
	dataDir := flag.String("data-dir", "", "directory for out-of-core segment files; snapshots become small manifests referencing them")
	mmap := flag.Bool("mmap", false, "serve sealed segments from memory-mapped files (requires -data-dir; lazy boot)")
	resultCache := flag.Int("result-cache", 1024, "result-cache capacity in entries (0 disables)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "time limit for reading request headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "time limit for reading an entire request, body included")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "time limit for writing a response")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection limit")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error (debug includes per-request access logs)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of logfmt text")
	slowQuery := flag.Duration("slow-query", time.Second, "log queries slower than this at Warn with the planner breakdown (0 disables)")
	debugAddr := flag.String("debug-addr", "", "separate debug listener with /debug/pprof/ and a /metrics mirror (empty disables; keep off public interfaces)")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logJSON)
	if err != nil {
		return err
	}
	if *mmap && *dataDir == "" {
		return errors.New("-mmap requires -data-dir")
	}
	sketchBackend, err := lshensemble.ParseSketchBackend(*sketch)
	if err != nil {
		return err
	}
	if *snapshot == "" && *dataDir != "" {
		*snapshot = filepath.Join(*dataDir, "MANIFEST")
	}

	resultCacheSize := *resultCache
	if resultCacheSize <= 0 {
		resultCacheSize = -1 // LiveOptions uses 0 for "default"; the flag uses 0 for "off"
	}
	opts := lshensemble.LiveOptions{
		Options: lshensemble.Options{
			NumHash:       *hashes,
			RMax:          *rMax,
			NumPartitions: *partitions,
			Sketch:        sketchBackend,
		},
		SealThreshold:   *seal,
		MaxSegments:     *maxSegments,
		ResultCacheSize: resultCacheSize,
		DataDir:         *dataDir,
		Mmap:            *mmap,
	}

	var idx *lshensemble.LiveIndex
	if *snapshot != "" {
		if _, err := os.Stat(*snapshot); err == nil {
			loaded, err := serve.LoadSnapshot(*snapshot, *seed, opts)
			if err != nil {
				return fmt.Errorf("loading snapshot %s: %w", *snapshot, err)
			}
			idx = loaded
			logger.Info("warm start", "domains", idx.Len(), "snapshot", *snapshot)
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checking snapshot %s: %w", *snapshot, err)
		}
	}
	if idx == nil {
		fresh, err := lshensemble.BuildLive(nil, opts)
		if err != nil {
			return fmt.Errorf("initializing index: %w", err)
		}
		idx = fresh
		logger.Info("cold start: empty index")
	}
	defer idx.Close()

	// The effective signature length: -hashes 0 means the default, and a
	// loaded snapshot brings its own.
	o := idx.Options()
	hasher := lshensemble.NewHasher(o.NumHash, *seed)
	srv := serve.NewWith(idx, hasher, *seed, *snapshot, serve.Options{
		Logger:    logger,
		SlowQuery: *slowQuery,
	})
	stopDebug, err := obs.StartDebugServer(*debugAddr, srv.Registry(), logger)
	if err != nil {
		return err
	}
	defer stopDebug()
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Without these limits a slowloris client — one that trickles header
		// or body bytes forever — pins a connection (and its goroutine) for
		// the life of the process.
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() {
		logger.Info("serving", "addr", *addr, "hashes", o.NumHash, "rmax", o.RMax,
			"partitions", o.NumPartitions, "sketch", sketchBackend.String(), "seal", *seal)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "error", err)
	}
	// Shutdown does not see the routers' upgraded record connections; their
	// queries must stop before the snapshot is saved and the index closed.
	srv.CloseRecords()
	if *snapshot != "" {
		n, err := srv.SaveSnapshot()
		if err != nil {
			// Returning (instead of the old log.Fatalf) lets idx.Close run —
			// segment mappings are released and the compactor drains — while
			// the process still exits non-zero on the path where durability
			// just failed.
			return fmt.Errorf("saving snapshot: %w", err)
		}
		logger.Info("saved snapshot", "path", *snapshot, "size", byteCount(n), "domains", idx.Len())
	}
	return nil
}

func byteCount(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
