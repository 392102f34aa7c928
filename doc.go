// Package lshensemble is a from-scratch Go implementation of LSH Ensemble,
// the Internet-scale domain-search index of Zhu, Nargesian, Pu and Miller
// (PVLDB 9(12), 2016).
//
// # Problem
//
// A domain is a set of distinct values — for example the contents of one
// column of a table. Given a corpus of domains D, a query domain Q and a
// containment threshold t*, domain search returns every X in D with
//
//	t(Q, X) = |Q ∩ X| / |Q| ≥ t*
//
// Containment (rather than Jaccard similarity) is the right relevance
// measure for finding joinable tables: it is insensitive to the indexed
// domain's size, which matters because real corpora have power-law size
// distributions.
//
// # Index
//
// LSH Ensemble partitions domains by cardinality (equi-depth, which the
// paper proves near-optimal for power-law data), builds one dynamically
// tuned MinHash LSH per partition, and at query time converts t* into a
// per-partition Jaccard threshold using each partition's upper size bound.
// The conversion is conservative — it never introduces new false
// negatives — and partitioning tightens it, which is where the precision
// win over a single MinHash LSH comes from.
//
// # Quickstart
//
//	hasher := lshensemble.NewHasher(256, 42)
//	var records []lshensemble.DomainRecord
//	for key, values := range myDomains {
//	    records = append(records, lshensemble.SketchStrings(hasher, key, values))
//	}
//	index, err := lshensemble.BuildLive(records, lshensemble.LiveOptions{
//	    Options: lshensemble.Options{NumPartitions: 16},
//	})
//	if err != nil { ... }
//	defer index.Close() // stops the background compactor
//	query := lshensemble.SketchStrings(hasher, "query", queryValues)
//	matches := index.Query(query.Sig, query.Size, 0.7) // candidate keys
//
// BuildLive seals the records into one segment — the paper's ensemble, built
// once — and the index answers from the moment it returns, while Add and
// Delete keep changing it (see Live index below). SaveLive and LoadLive
// persist it; cmd/lshed builds one from a directory of CSV files.
//
// # Performance notes
//
// The storage and query hot paths are laid out for cache locality and zero
// steady-state allocation:
//
//   - Every LSH forest keeps all signatures in one contiguous backing store
//     (stride NumHash), plus a flat per-tree column of leading hash values
//     and an in-memory fence over it (its first value per 64 bytes). A probe
//     searches the L2-resident fence, then one line of the column, gallops
//     to the end of a matching run, and reads the store only for deeper
//     prefixes. Those are dependent cache misses, so a segment's probe takes
//     the trees of all its partitions through them stage by stage, 64 at a
//     time with all their misses in flight, the fence searches in lockstep.
//   - Trees are sorted, once per build, with an LSD radix sort on the leading
//     hash value (near-uniform in [0, 2^61)), falling back to comparison
//     sorting only inside runs of equal leading values — ~3x faster than a
//     closure-comparator sort.Slice.
//   - Corpus sketching uses a batched permutation-major path
//     (Hasher.PushHashedBlock) that streams L1-sized blocks of base hashes
//     through eight permutations at a time on AVX-512F CPUs and four
//     elsewhere (see Corpus sketching below).
//   - The unsealed buffer keeps its leading values in the sealed forest's
//     layout: one column per band, band-major, that Add appends to. A
//     threshold query reads only the columns of the bands the buffer's lead
//     filter lets through and a buffered signature only on a lead hit; top-k
//     heaps only the best k instead of sorting every candidate.
//     The buffer holds 1.4 % of lib_query's entries; its share of the query
//     CPU fell from 30 % to 11 %, and lib_query sat_qps rose ×1.16–1.30.
//   - Buffered signatures are kept at the sketch backend's width in one
//     append-only arena, as the segment they seal into stores them, and
//     snapshots save them so (manifest v5): 576 of a full-width entry's
//     2 048 bytes under the default minwise16. Top-k scores the buffer in one pass over the arena,
//     and every containment score, buffered or sealed, is one vector match
//     per store width (minhash.Matches: eight slots per instruction on
//     AVX-512F, the stored values widened as they load).
//   - Queries deduplicate candidates with generation-stamped visited arrays
//     and reusable scratch recycled through a sync.Pool — no maps, no
//     goroutine spawned per partition. LiveIndex.QueryAppend with a reused
//     destination allocates nothing on a result-cache hit or with
//     LiveOptions.ResultCacheSize −1; with the cache on (the default) a miss
//     makes three allocations to store its answer.
//
// # Parallelism model
//
// Segment construction and batch serving fan out over bounded worker pools
// sized by GOMAXPROCS; all parallel paths degrade to the serial code at one
// proc. Construction is bit-deterministic at any worker count, and every
// QueryBatch row equals the answer of the same query asked alone.
//
//   - A seal — BuildLive's, the compactor's, Compact's — routes records to
//     partitions serially (one binary search each), then builds each
//     partition's forest once (lshforest.Build), the partitions drained
//     through a worker pool. A build sizes its contiguous store in a single
//     allocation, copies its members' signatures in, and sorts its trees,
//     one job per tree drained through a second pool whose workers each own
//     their radix-sort scratch; workers never share mutable state, and a
//     built forest is never written again.
//   - LiveIndex.QueryBatch runs every row as the single query it is — same
//     result cache, same plan, same per-segment step — and only orders the
//     visits segment-major: the pending rows are fanned across the workers
//     for one segment before any row moves to the next, because a segment's
//     leading columns stay cache-resident only while rows visit it together
//     (row-parallel batches cost lib_query 5 % of its sat_qps).
//   - Corpus sketching: one domain is sketched on one goroutine, and callers
//     parallelise across domains: cmd/lshed sketches whole columns in parallel
//     and serves multi-column query files through one QueryBatch dispatch
//     (-batch -workers). Within a worker the permutation kernel is
//     data-parallel: on amd64 CPUs with AVX-512F (detected once at start-up
//     from CPUID and XGETBV; there is no switch) an assembly loop computes
//     (a·v + b) mod (2^61 − 1) for eight permutations per instruction from
//     32×32-bit partial products, and the scalar Go loop takes the m mod 8
//     leftover slots, other CPUs and other architectures. Both reduce exactly,
//     so they produce the same words and signatures, snapshots and answers do
//     not depend on the CPU.
//
// Concurrency contract: a LiveIndex needs no external synchronization. Any
// number of goroutines may query it (Query*, QueryTopK*, QueryBatch*) while
// others Add and Delete and the compactor seals and merges: a query reads one
// immutable snapshot, and writers publish whole new ones. A Hasher may be
// shared by any number of sketching goroutines.
//
// # Live index
//
// LiveIndex (BuildLive) is the serving-system layer for corpora that churn
// under load: Add and Delete at any time, from any goroutine. A
// LiveIndex holds an atomically-swapped snapshot of three immutable parts —
// sealed segments (each a frozen ensemble over a slice of the corpus), an
// unsealed buffer of recent Adds (scanned as one extra partition with the
// same (b, r) banding test, over band-major columns of its leading values),
// and a tombstone set recording Deletes and
// replacements. Its guarantees:
//
//   - Queries never block on ingest or compaction: readers load the
//     snapshot pointer once and touch only immutable data; writers and the
//     compactor publish whole new snapshots with a single pointer swap.
//   - Every query answers from a consistent point-in-time snapshot:
//     readers in flight keep the snapshot they loaded, and each live key
//     appears at most once per result.
//   - Add is an upsert (replacing any previous entry of the key), Delete
//     tombstones immediately; both serialize on a writer mutex that the
//     read path never touches. The snapshot is the index's whole state:
//     every change, the compactor's too, publishes an edited copy of it, so
//     queries, Save, Stats and Len read only the snapshot they load.
//   - A background compactor seals the buffer into a segment past
//     LiveOptions.SealThreshold and merges three segments of a size tier
//     into one (past LiveOptions.MaxSegments, a cap, the two smallest),
//     using the parallel construction path. Seal, merge, Flush and Compact
//     are one rewrite: the live entries of the segments it replaces, and of
//     the buffer when it seals, build one new segment, so dead entries drop
//     as segments rebuild. Each rewrite drops every tombstone that no longer
//     shadows an entry, worked out before the writer lock, which covers only
//     the swap. A loaded snapshot keeps its shape until its next seal.
//   - Compaction is equivalence-preserving: full Compact builds the buffer
//     and every segment into a single segment, once, that is bit-identical
//     to a fresh BuildLive over the surviving records in mutation order (and
//     therefore answers every query identically), with every tombstone
//     purged.
//   - SaveLive/LoadLive persist a point-in-time snapshot for warm restarts;
//     Save is safe while writers run. The snapshot wire format is
//     versioned and checksummed: current files (v5) are either
//     self-contained or — with LiveOptions.DataDir — small manifests
//     referencing segment files; older v1–v4 files still load (missing
//     planner metadata is rebuilt, full-width buffered signatures narrowed).
//
// Queries are planned per segment and, inside a segment, per (partition,
// tree) column: sealed segments carry seal-time metadata (domain-size range,
// partition bounds, key and leading-value Bloom filters, and in memory a
// leading-value filter sliced by partition). The size metadata skips segments
// none of whose partitions can reach the threshold; the Bloom is asked about
// the query's leading values in tree order up to its first positive — none
// skips the segment — then the sliced filter which partitions of which trees,
// and the answers travel down to the probe kernel as one tree set per
// partition. The unsealed buffer's own filter restricts its band scan
// likewise: the scan reads the lead columns of only those bands. The probe is
// bound by cache misses, not compares, so the untouched columns are the
// saving (lib_query sat_qps ×2.87 per tree, then ×1.63 per partition;
// CHANGES.md PR 16, 20).
// QueryTopK sorts the segments largest-bound-first when it runs and visits
// them in that order with early termination, and its threshold ladder reuses
// the segment's tree sets on every rung and skips a partition whose (b, r)
// did not change since the ladder last probed it. None of this changes an answer — a probe at any
// depth needs an exact match on the tree's leading value, so planned
// results are byte-identical to a full scan (LiveOptions.DisablePruning,
// the reference path of the equivalence tests). A segment that is probed
// plans its partitions' (b, r) on the spot, from the process-wide tuning
// table; a lock-free result cache rides on the snapshot generation and is
// validated by a single generation compare on read, so repeated queries
// against an unchanged corpus are allocation-free cache hits.
// LiveOptions.DisablePruning and ResultCacheSize expose the knobs;
// LiveStats reports per-segment metadata and prune/hit counters.
//
// # Out-of-core segments
//
// With LiveOptions.DataDir set, the live index runs out-of-core: every
// seal and merge spills its segment to a page-aligned, checksummed file
// (header, planner metadata, then the forests' contiguous signature store
// and flat tree columns — the exact in-memory layout), written crash-safely
// via temp file + fsync + atomic rename. Snapshots become small manifests
// referencing the files, and retirement is refcounted: a segment file is
// deleted (and its mapping released) only after the last in-flight reader
// of any snapshot listing it has drained, with manifest-referenced files
// further deferred to LiveIndex.CollectGarbage after the next manifest is
// durable.
//
// Adding LiveOptions.Mmap serves sealed segments from read-only
// memory-mapped views of those files. The flat layout was chosen so
// binary-search probes work unchanged on mapped bytes — queries are
// zero-copy and allocation-free over the mapping, within measurement noise
// of heap serving (BenchmarkLiveQueryMmapVsHeap). Boot from a manifest reads only each
// file's header and planner metadata eagerly; signatures page in lazily as
// queries touch them, so a warm restart of a large corpus answers its
// first query in milliseconds and resident memory tracks the queried
// working set, not the corpus. Choose -mmap when the corpus approaches or
// exceeds RAM, when restart latency matters, or when many daemons share a
// box; plain DataDir (spill without mmap) keeps heap serving but still
// gets small manifests and crash-safe persistence. On platforms without
// mmap support the option degrades to a heap read with identical results.
//
// cmd/lshensembled serves a LiveIndex over HTTP (/add, /delete, /query,
// /query/topk, /query/batch, /stats, /compact, /save) with snapshot load at
// boot and save on shutdown, and runs out-of-core with -data-dir DIR -mmap
// (the snapshot then defaults to DIR/MANIFEST; /stats reports each segment's
// backing, file bytes and resident estimate); examples/dynamic walks the
// churn-and-compact lifecycle and prints what the planner pruned. Query
// handlers thread the request context into the index, so a disconnected
// client stops its in-flight query or batch instead of running it to
// completion (QueryAppendContext / QueryTopKContext / QueryBatchContext on
// LiveIndex expose the same to library callers).
// Every endpoint takes JSON with the domain's raw values, which the daemon
// sketches with its own -seed. The router's pre-sketched requests come as
// records on an upgraded connection instead (see Distributed serving); both
// resolve to the same (signature, size, threshold) and the same answer.
// Repeated queries on an unchanged index — ranked ones included — are
// answered from the generation-keyed result cache.
//
// # Distributed serving
//
// cmd/lshrouter shards the daemon horizontally: N lshensembled processes
// each hold a slice of the corpus, and a stateless router in front makes
// the fleet answer like one index. Topology: any number of identical
// routers (they share no state) in front of a static -shards list; every
// shard must run the same -seed and -hashes, since MinHash signatures from
// different families are incomparable. A rolling upgrade leaves each shard on
// its snapshot's backend; a mixed minwise64/minwise32 fleet merges the same
// answers, its top-k scores within 2^-32 of a minwise64 fleet's (a minwise16
// shard's within 2^-16).
//
// Both binaries speak one wire (internal/wire: the JSON types and front
// end, the records, the answer frame) and hand each checked, sketched request
// to a sink: the daemon's (internal/serve) answers from the index, the
// router's (internal/cluster) scatters to the ring. The nouns both share live
// below the index (internal/domain), so the router links neither the index
// nor the daemon, and relays each shard's /stats, /compact and /save body as
// it came; a test of cmd/lshrouter keeps its closure so.
//
// Writes (/add, /delete) route by consistent hashing — a vnode ring over
// the live shards with a deterministic bounded-load pass (no shard owns
// more than load-factor/N of the keyspace; ownership is a pure function of
// membership, so independent routers agree without coordinating).
// -replication K writes each key to K distinct shards. Queries (/query,
// /query/topk, /query/batch) scatter to every live shard under one shared
// deadline and merge: the shards' sorted match lists k-way merge with equal
// neighbours dropped, top-k keeps each key's best estimated containment and
// re-ranks, batches merge row by row.
//
// Every routed request is sketched once, at the router (the paper hands one
// signature to every partition; the fleet hands one to every shard). The
// fleet has one hash family and the ring holds the shards that have it: the
// router reads each shard's (seed, num_hash) off /stats — on the first health
// tick, on every promotion, once on demand if a request comes first — adopts
// the family most shards report (a tie goes to the lowest-named shard's) and
// keeps it for its life, so re-seeding a fleet means restarting its routers.
// A shard of another family (logged and counted as a demotion), or without
// record connections, is held out of the ring; before any family is known a
// request is a 503 with Retry-After. GET /ring reports the family.
//
// The router validates a client's query or add as a shard would, sketches
// the values once and sends every leg the same query record, every ring
// owner the same add record; a delete record carries the key alone. A record
// is fields behind uint32 lengths: the seed, the shape's words (threshold as
// float64 bits, k, workers, size) and each row's signature words
// (internal/wire documents the layout). A 20 000-value query or domain moves
// 8·num_hash bytes per shard, and a shard decodes no string and computes no
// hash: it stores exactly the record the JSON /add of the same values would.
// A shard that refuses a record — it restarted under another seed — fails
// that leg, so a query answer is partial rather than wrong, and is held out
// until it reports the fleet's family again. A request the router refuses
// while reading or sketching, or every shard refuses alike, is the client's
// 4xx in the shard's words, not a 502, and counts against no shard.
//
// A JSON body is read in one pass, at the router and at a shard alike, each
// value hashed where it lies, and accepted or refused exactly as
// encoding/json would have it, in the same words (internal/wire has the rules).
//
// A shard answers a query record with an answer frame: its sorted keys
// behind length prefixes (ranked keys with their scores as float64 bits for
// top-k; the layout is in internal/wire's wire types), which the router
// merges without running a JSON scanner over them. What it answers its
// client is byte for byte what it answered when the shards answered in JSON.
// A frame that is malformed, out of order or of another row count than the
// request fails its leg, and the answer goes partial, never wrong.
//
// Those legs and writes do not go through net/http. A shard upgrades an
// HTTP/1.1 connection on its own listener at GET /records into a record
// connection, and the router keeps up to 32 idle ones per shard: a leg is
// one write, a request record (op, trace ID, the leg's remaining deadline,
// the query or write record), and one read, an answer record (status, then
// the answer frame, a write's replaced or deleted flag, or the error
// envelope). One function per shape answers a record and the JSON request,
// with the same refusals, metrics and log lines. The shard runs a
// query under the record's deadline and closes a connection idle for 90 s;
// the router closes one idle in its pool for 60 s, returns a connection only
// after a complete answer, closes it on any error, and sends a record once
// more on a fresh connection, emptying the pool, when a pooled one fails
// before its answer's first byte (a restarted shard). Writes too: an add is
// an upsert of the same bytes, a delete of a key already gone leaves it
// gone, and the replaced or deleted flag is the answering attempt's.
// lshrouter_shard_dials_total counts the dials. Health probes and the admin
// calls stay on HTTP.
//
// Consistency and partial results: a query observes each shard's
// point-in-time snapshot — the fleet-wide answer is not a global snapshot,
// but per shard it carries the live index's usual guarantees. A shard that
// is slow (past -shard-timeout) or dead contributes nothing to the merge;
// the response stays HTTP 200 with "partial": true and the missing shards
// named in "failed" — the router degrades, it never turns one shard's
// death into an error. Only a total blackout is a 5xx. A background
// checker probes each shard's /healthz and demotes a shard from the ring
// after -health-fail consecutive misses (one success promotes it back),
// so writes route around the hole and clean (non-partial) answers resume.
//
// Shard handoff rides the persistence layer: snapshots embed the hash
// seed, so an operator replaces a dead shard by booting a fresh daemon
// from the dead shard's -snapshot file or -data-dir manifest and listing
// it at the same URL — the ring is indifferent to which process answers.
//
// # Observability
//
// Both binaries are instrumented end to end with a dependency-free metrics
// core (internal/obs): atomic counters and gauges plus fixed-bucket
// histograms whose record path is lock-free and allocation-free. GET
// /metrics on each binary serves the Prometheus text exposition format.
// There is no switch that turns collection off: instrumented against plain
// measured inside the ledger's own noise (bench/README.md), and the library's
// query path under a planner trace still performs zero steady-state
// allocations per query (TestInstrumentedQueryZeroAllocs).
//
// lshensembled exports, per endpoint, lshensembled_http_requests_total
// {endpoint, code} (status classes 2xx/4xx/5xx), latency histograms
// lshensembled_http_request_seconds{endpoint}, and an in-flight gauge —
// plus the index itself: lshensembled_live_query_seconds{op=query|topk|
// batch}, the one measurement a query handler takes around its index call
// (the same duration the slow-query log compares and prints; every call that
// reached the index counts, result-cache hits and canceled calls included;
// the library itself reads no clock), gauges for domains, segments, buffered
// entries, tombstones and segment resident/file bytes, seal/merge/spill
// counters, and the planner's decision
// counters (lshensembled_planner_segments_total{decision=probed|
// range_pruned|bloom_pruned}, lshensembled_planner_trees_total and
// _columns_total{decision=probed|skipped} — how selective the two
// leading-value filters were over the probed segments — result-cache
// hit/miss, top-k early exits, buffer scans vs Bloom skips) mirrored from
// LiveStats at scrape time so the query path pays nothing for them.
//
// lshrouter exports the same per-endpoint HTTP families under the
// lshrouter_ prefix plus fleet health: lshrouter_shards_live,
// lshrouter_shard_demotions_total / _promotions_total / _errors_total /
// _dials_total {shard} (the last counts record connections dialed: pool
// churn or a flapping shard) and lshrouter_partial_responses_total. Each
// scattered query reaches every shard in the ring as one record, counted by
// the shard's lshensembled_sketched_requests_total{op}; a routed write moves
// the shard's lshensembled_http_requests_total{endpoint="add"|"delete"} as a
// JSON write does.
//
// Request tracing: every request is stamped with a trace ID — an inbound
// X-Request-Id is honored (sanitized), otherwise one is generated — echoed
// on the response, propagated by the router to every shard fan-out call
// (in the X-Request-Id header, or in the record of a record leg),
// and attached as trace_id to the structured per-request logs (log/slog,
// Debug level; -log-level, -log-json), so one ID follows a query from the
// router into each shard's log. Queries slower than lshensembled's
// -slow-query threshold log at Warn with the planner's per-query
// breakdown (segments probed vs range/Bloom pruned, trees and columns probed
// vs skipped inside the probed segments, buffer scanned, result-cache hit; a
// ranked query's line carries the result-cache hit and the snapshot's shape).
// GET /healthz on both binaries is a static
// {"status":"ok"} that never touches the index, safe for tight probe
// loops. -debug-addr starts a separate listener with net/http/pprof under
// /debug/pprof/ and a /metrics mirror, kept off the serving port.
//
// The load harness is the bench/ module: its fleet_query workload drives a
// router and two shards and fails the run on any error or wrong answer.
//
// # Sketch backends
//
// The signature representation is pluggable (core.SketchBackend, the
// daemon's -sketch flag, Options.Sketch). All backends hash with the
// same 64-bit minwise hasher; the backend decides how many bits of each
// minimum are stored and how containment is estimated:
//
//   - Minwise64: full 64-bit minima, the paper's configuration and the old
//     default. Wire-compatible with every artifact this package has ever
//     written; v1–v3 snapshots and LSEG v1 segment files carry it implicitly.
//   - Minwise16 (the default) / Minwise32: b-bit minwise. Stores
//     only the low b bits of each minimum and corrects the match estimate
//     for chance collisions (Li & König). Truncation is a superset property
//     — any pair the full signature matches, the truncated one matches too
//     — so recall never drops; precision pays the 2^-b collision floor.
//   - Every band's leading value, the one a probe looks up and the lead
//     filters hold, keeps at least 32 bits: Minwise16 stores each lead's
//     bits 16–31 beside its 16-bit slots, 2 bytes a band, 576 bytes a domain
//     at m = 256. A 16-bit lead let an unrelated domain into an r = 1 band
//     with probability 2^-16 and cost precision at corpus scale (0.596 in
//     the table below, 0.288 against lib_query's 0.46 floor); at 2^-32
//     Minwise16 returns Minwise32's candidates. The slots after a lead only
//     refine a lead hit, and the match count scores them at 16 bits.
//
// Left unset (no -sketch), the backend is Minwise16 for a new index, and a
// loaded snapshot or manifest keeps its own: minwise64 and minwise32 files
// boot unchanged. A file tagged 2, the earlier minwise16 whose leads were 16
// bits, is refused like an unknown tag and must be rebuilt from its records:
// its leads cannot be widened back.
//
// Measured accuracy-vs-bytes frontier (Fig. 4 corpus scale, t* = 0.5,
// m = 256 hash functions; reproduce with "experiments -run frontier", which
// also scores a k-minimum-values sketch, internal/expt.KMV, by brute
// force — a comparator of the evaluation, not a backend: it has no
// fixed-slot structure to band, so no index can be built on it):
//
//	backend    bytes/domain  precision  recall
//	minwise64      2048.0      0.658     0.912
//	minwise32      1024.0      0.658     0.912
//	minwise16       576.0      0.658     0.912
//	kmv (k=128)     286.9      0.937     0.979   (comparator)
//
// With 16-bit leads, minwise16 measured 512.0 bytes/domain at precision
// 0.596 (recall 0.912).
//
// An 8-bit store, minwise8, measured 256.0 bytes/domain at precision 0.034
// (recall 0.912): its 2^-8 chance-collision floor floods precision at corpus
// scale, so it was removed, and a file carrying its tag (1) is refused.
//
// Rules of thumb: minwise32 is a free halving (at m = 256 the top 32 bits
// essentially never disambiguate a minimum); minwise16 cuts 44 % more at the
// same candidates, since only the band lead needs 32 bits, and its top-k
// scores differ from minwise32's only by the 2^-16 chance-collision
// correction of the match count. The backend is recorded in every
// wire format (index, forest, snapshot manifest v4+, segment files) and in
// /stats as "sketch" and "signature_bytes"; a daemon booted with a
// mismatched -sketch refuses the snapshot rather than misinterpret it.
//
// Performance is tracked by one ledger: bench/README.md describes the
// workloads and BENCHMARK.json names every end-to-end and per-layer metric.
//
// See examples/ for runnable programs and cmd/experiments for the
// reproduction of every table and figure in the paper's evaluation. The
// figures run on the live index that ships — each system, the Baseline and
// Asymmetric Minwise Hashing included, is a LiveIndex sealed into one
// segment — and a test holds their answers to the build-once reference index
// (Asym's to a plain LSH Forest over the padded signatures), key set for key
// set.
package lshensemble
