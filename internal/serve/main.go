package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"lshensemble"
	"lshensemble/internal/obs"
)

// Main runs lshensembled with args, the program name first (cmd/lshensembled
// documents the flags), logging to stderr, until ctx ends or SIGINT or
// SIGTERM arrives. It returns the process exit status: 0 after a clean
// shutdown or -h, 2 for a bad flag, 1 for any other failure.
func Main(ctx context.Context, args []string, stderr io.Writer) int {
	var d daemon
	return d.listen.Main(args, stderr, ":7447", d.flags, func(logger *slog.Logger) error { return d.run(ctx, logger) })
}

// daemon is lshensembled's configuration, as its flags set it.
type daemon struct {
	listen           obs.Listener
	opts             lshensemble.LiveOptions
	seed             uint64
	sketch, snapshot string
	slowQuery        time.Duration
}

func (d *daemon) flags(fs *flag.FlagSet) {
	fs.IntVar(&d.opts.NumHash, "hashes", 256, "MinHash signature length")
	fs.IntVar(&d.opts.RMax, "rmax", 8, "LSH forest tree depth")
	fs.IntVar(&d.opts.NumPartitions, "partitions", 16, "cardinality partitions per sealed segment")
	fs.Uint64Var(&d.seed, "seed", 42, "hash family seed (must match across restarts and clients)")
	fs.StringVar(&d.sketch, "sketch", "", "signature store backend: minwise64, minwise32, minwise16 (b-bit stores trade estimate variance for 1/2–1/4 the signature bytes; minwise16 keeps band leads at 32 bits); unset: minwise16 for a new index; a loaded snapshot keeps its own")
	fs.IntVar(&d.opts.SealThreshold, "seal", 4096, "buffered adds that trigger a background seal")
	fs.IntVar(&d.opts.MaxSegments, "max-segments", 8, "cap on sealed segments; below it, three segments of a size tier merge")
	fs.StringVar(&d.snapshot, "snapshot", "", "snapshot file: loaded at boot if present, saved on shutdown and POST /save (defaults to <data-dir>/MANIFEST when -data-dir is set)")
	fs.StringVar(&d.opts.DataDir, "data-dir", "", "directory for out-of-core segment files; snapshots become small manifests referencing them")
	fs.BoolVar(&d.opts.Mmap, "mmap", false, "serve sealed segments from memory-mapped files (requires -data-dir; lazy boot)")
	fs.IntVar(&d.opts.ResultCacheSize, "result-cache", 1024, "result-cache capacity in entries (0 disables)")
	fs.DurationVar(&d.slowQuery, "slow-query", time.Second, "log queries slower than this at Warn with the planner breakdown (0 disables)")
}

// run owns the index for the daemon's life: every path out of it, a failed
// snapshot save included, reaches idx.Close, which unmaps segment files and
// stops the compactor.
func (d *daemon) run(ctx context.Context, logger *slog.Logger) error {
	if d.opts.Mmap && d.opts.DataDir == "" {
		return errors.New("-mmap requires -data-dir")
	}
	var err error
	if d.sketch != "" {
		if d.opts.Sketch, err = lshensemble.ParseSketchBackend(d.sketch); err != nil {
			return err
		}
	}
	if d.snapshot == "" && d.opts.DataDir != "" {
		d.snapshot = filepath.Join(d.opts.DataDir, "MANIFEST")
	}
	if d.opts.ResultCacheSize <= 0 {
		d.opts.ResultCacheSize = -1 // LiveOptions uses 0 for "default"; the flag uses 0 for "off"
	}

	var idx *lshensemble.LiveIndex
	if d.snapshot != "" {
		if _, err := os.Stat(d.snapshot); err == nil {
			if idx, err = LoadSnapshot(d.snapshot, d.seed, d.opts); err != nil {
				return fmt.Errorf("loading snapshot %s: %w", d.snapshot, err)
			}
			logger.Info("warm start", "domains", idx.Len(), "snapshot", d.snapshot)
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checking snapshot %s: %w", d.snapshot, err)
		}
	}
	if idx == nil {
		if idx, err = lshensemble.BuildLive(nil, d.opts); err != nil {
			return fmt.Errorf("initializing index: %w", err)
		}
		logger.Info("cold start: empty index")
	}
	defer idx.Close()

	// The effective signature length: -hashes 0 means the default, and a
	// loaded snapshot brings its own.
	o := idx.Options()
	srv := NewWith(idx, lshensemble.NewHasher(o.NumHash, d.seed), d.seed, d.snapshot, Options{
		Logger:    logger,
		SlowQuery: d.slowQuery,
	})
	if err := d.listen.Run(ctx, srv, srv.Registry(), logger, "serving", "hashes", o.NumHash, "rmax", o.RMax,
		"partitions", o.NumPartitions, "sketch", o.Sketch.String(), "seal", d.opts.SealThreshold); err != nil {
		return err
	}
	// Shutdown does not see the routers' upgraded record connections; their
	// queries must stop before the snapshot is saved and the index closed.
	srv.CloseRecords()
	if d.snapshot != "" {
		n, err := srv.SaveSnapshot()
		if err != nil {
			// Returning lets idx.Close run while the process still exits
			// non-zero on the path where durability just failed.
			return fmt.Errorf("saving snapshot: %w", err)
		}
		logger.Info("saved snapshot", "path", d.snapshot, "size", byteCount(n), "domains", idx.Len())
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
