package cluster

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"strings"
	"time"

	"lshensemble/internal/obs"
)

// Main runs lshrouter with args, the program name first (cmd/lshrouter
// documents the flags), logging to stderr, until ctx ends or SIGINT or
// SIGTERM arrives. It returns the process exit status: 0 after a clean
// shutdown or -h, 2 for a bad flag, 1 for any other failure.
func Main(ctx context.Context, args []string, stderr io.Writer) int {
	var listen obs.Listener
	var shards string
	var opts Options
	flags := func(fs *flag.FlagSet) {
		fs.StringVar(&shards, "shards", "", "comma-separated shard base URLs (required)")
		fs.IntVar(&opts.Ring.Replication, "replication", 1, "distinct shards owning each key")
		fs.IntVar(&opts.Ring.Vnodes, "vnodes", 64, "virtual nodes per shard on the hash ring")
		fs.Float64Var(&opts.Ring.LoadFactor, "load-factor", 1.25, "bounded-load cap: max keyspace share per shard as a multiple of 1/N (≥ 1)")
		fs.DurationVar(&opts.ShardTimeout, "shard-timeout", 2*time.Second, "per-shard deadline on forwarded writes, scattered queries and health probes")
		fs.DurationVar(&opts.HealthInterval, "health-interval", 2*time.Second, "how often to probe shard /healthz")
		fs.IntVar(&opts.HealthFailures, "health-fail", 2, "consecutive probe failures that demote a shard from the ring")
	}
	return listen.Main(args, stderr, ":7446", flags, func(logger *slog.Logger) error {
		if shards == "" {
			return errors.New("-shards is required (comma-separated base URLs)")
		}
		var urls []string
		for _, u := range strings.Split(shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		opts.Logger = logger
		router, err := NewRouter(urls, opts)
		if err != nil {
			return err
		}
		router.Start()
		defer router.Close()
		return listen.Run(ctx, router, router.Registry(), logger, "routing", "shards", len(urls),
			"replication", opts.Ring.Replication, "vnodes", opts.Ring.Vnodes, "load_factor", opts.Ring.LoadFactor)
	})
}
