// Command lshensembled serves an LSH Ensemble over HTTP as a live system:
// domains stream in and out while queries keep flowing — ingest never
// blocks a query (the index publishes atomically-swapped snapshots; see
// internal/live). The daemon is internal/serve, whose requests are
// internal/wire's; cmd/lshrouter shards it horizontally by running N of them
// behind a consistent-hash scatter-gather router speaking the same wire.
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
// wrote (v1–v4) still load, unless they hold a retired sketch: the 8-bit one
// (tag 1) or the minwise16 whose band leads were 16 bits (tag 2), whose
// indexes must be rebuilt from their records. The daemon always saves the
// current format (v5). With no -sketch a new index stores minwise16 (16-bit
// minima, each band lead at 32 bits) and a loaded file keeps its own backend.
// The index file `lshed index` writes is such a snapshot: boot it with
// -snapshot index.bin -seed 0x15e4e5e3b1e.
//
// With -data-dir the index runs out-of-core: sealed segments spill to
// page-aligned files under the directory and the snapshot becomes a small
// manifest referencing them (v5, like any snapshot), written atomically on
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
// upgrades one; internal/wire lays the records out), each carrying the
// deadline its router waits for. The listener itself is
// hardened against slow clients — header reads, body reads and idle
// keep-alives all time out (-read-header-timeout, -read-timeout,
// -write-timeout, -idle-timeout), so a slowloris peer cannot pin
// connections forever.
//
// Usage:
//
//	lshensembled [-addr :7447] [-hashes 256] [-rmax 8] [-partitions 16]
//	             [-sketch minwise16] [-seed 42] [-seal 4096] [-max-segments 8]
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
	"os"

	"lshensemble/internal/serve"
)

func main() { os.Exit(serve.Main(context.Background(), os.Args, os.Stderr)) }
