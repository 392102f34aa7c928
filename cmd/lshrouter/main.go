// Command lshrouter is a stateless scatter-gather router in front of a
// fleet of lshensembled shards — the horizontal-scaling tier: each shard
// holds a slice of the corpus, and the router makes the fleet answer like
// one big index.
//
// Writes route by consistent hashing: a key's owners are derived from a
// vnode ring over the live shards with deterministic bounded-load capping
// (no shard owns more than load-factor/N of the keyspace), so any number of
// stateless router instances agree on placement without coordinating.
// -replication ≥ 2 writes every key to that many distinct shards, so one
// shard death loses nothing.
//
// Queries scatter to every live shard under one shared deadline and merge:
// /query merges the shards' sorted match lists and drops duplicates,
// /query/topk keeps each key's best estimated containment and re-ranks,
// /query/batch merges row by row. A shard that is slow or dead contributes
// nothing and flips "partial": true in the response (with the shard named in
// "failed") — the router degrades, it does not error. Only a total blackout
// is a 5xx; a request every shard refuses alike is the client's 4xx.
//
// Every query and add is sketched once, here: the router reads each shard's
// hash family (seed, num_hash) off its /stats — on the first health tick, on
// every promotion, once on demand if a request comes first — adopts the one
// most shards report and keeps it for its life, and sends every leg or owner
// the same record (internal/wire: the seed, the shape's words and the
// signature, each behind a uint32 length) on a pooled record connection. A
// shard of another family, or one without record connections, is held out
// of the ring; a request before any family is known is a 503 with
// Retry-After. GET /ring reports the family's seed and num_hash.
//
// A background checker probes every shard's /healthz; -health-fail
// consecutive misses demote a shard from the ring (one success promotes it
// back). Demotion re-routes new writes; data the dead shard held stays
// missing until the shard returns or an operator boots a replacement from
// its snapshot — shard handoff is just lshensembled's -snapshot/-data-dir
// persistence: start the new shard on the old shard's manifest and segment
// files (same -seed) and re-list it.
//
// Usage:
//
//	lshrouter -shards http://10.0.0.1:7447,http://10.0.0.2:7447 \
//	          [-addr :7446] [-replication 1] [-vnodes 64] [-load-factor 1.25] \
//	          [-shard-timeout 2s] [-health-interval 2s] [-health-fail 2] \
//	          [-read-header-timeout 10s] [-read-timeout 1m] \
//	          [-write-timeout 2m] [-idle-timeout 2m] \
//	          [-log-level info] [-log-json] \
//	          [-debug-addr localhost:7546]
//
// All shards must run the same -seed and -hashes, or their signatures are
// incomparable; a shard that does not is held out of the ring, logged at
// Warn and counted as a demotion, and /ring shows its family beside its
// name. Re-seeding a fleet means restarting its routers too.
//
// Observability: every request carries a trace ID (an inbound X-Request-Id
// is honored, otherwise one is minted) that the router stamps on every
// shard fan-out call, so one ID follows a request from the router access
// log into each shard's. GET /metrics exposes request counters/latency
// histograms per endpoint plus the fleet view: lshrouter_shards_live,
// lshrouter_shard_demotions_total / _promotions_total / _errors_total
// (labelled by shard) and lshrouter_partial_responses_total; the scattered
// queries are counted where they land, by each shard's
// lshensembled_sketched_requests_total{op}. Demotions and promotions also log at Warn/Info. -debug-addr starts a separate listener
// with net/http/pprof under /debug/pprof/ and a /metrics mirror — keep it
// off public interfaces.
package main

import (
	"context"
	"os"

	"lshensemble/internal/cluster"
)

func main() { os.Exit(cluster.Main(context.Background(), os.Args, os.Stderr)) }
