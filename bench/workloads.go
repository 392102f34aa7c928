package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lshensemble"
	"lshensemble/internal/cluster"
	"lshensemble/internal/datagen"
	"lshensemble/internal/serve"
	"lshensemble/internal/xrand"
)

// scale sizes the workloads. full is what BENCHMARK.json's numbers mean;
// quick exists for the smoke test (same code, ~1 000 domains, short laps).
type scale struct {
	fleetDomains int // preloaded through the router's /add
	libDomains   int // streamed through live.Index.Add
	seal         int // live seal threshold (daemon default 4096)
	pool         int // serving query pool; must fit the 1024-entry result cache
	fleetLap     int // ops per lap of fleet_query; a multiple of fleetMix's total
	libLap       int // ops per lap of lib_query; a multiple of libMix's total
	batchRows    int // rows per serving batch
	libBatchRows int // rows per library batch
	quality      int // ground-truth queries: enough that recall and precision move by 1–2 % from seed to seed, not by 7 % as over 500
	ladder       int // traced replay length
	addLadder    int
	setups       int // set-ups per end-to-end run; setup_s is their median
	// rateScale multiplies the frozen rate ladders. 1 at full scale; the
	// quick scale's small seal threshold leaves many tiny segments, top-k
	// walks them all, and the box sustains half of the full-scale rates.
	rateScale float64
}

var fullScale = scale{
	fleetDomains: 18000, libDomains: 37400,
	seal: 4096, pool: 512, fleetLap: 600, libLap: 584, batchRows: 8, libBatchRows: 64,
	quality: 2000, ladder: 1000, addLadder: 300, setups: 3, rateScale: 1,
}

var quickScale = scale{
	fleetDomains: 1000, libDomains: 3000,
	seal: 128, pool: 128, fleetLap: 50, libLap: 146, batchRows: 8, libBatchRows: 64,
	quality: 200, ladder: 200, addLadder: 30, setups: 1, rateScale: 0.5,
}

// fleetRates is fleet_query's open-loop rate ladder in ops/s, frozen:
// calibrated once on the 2-core reference box so that r4 exceeds what the
// closed loop sustains. End-to-end latencies are read at r2. BENCHMARK.json has
// no key for it, so it lives here; changing it re-bases every latency metric.
var fleetRates = [4]float64{300, 600, 1200, 3000}

func scaledRates(sc scale) [4]float64 {
	r := fleetRates
	for i := range r {
		r[i] *= sc.rateScale
	}
	return r
}

// latencyLimit is the p95 a rate must meet, timed from due time, to count as
// sustained.
const latencyLimit = 25 * time.Millisecond

// Traffic mixes. Serving reads are /query : /query/topk : /query/batch =
// 8 : 1 : 1. The library mix gives each 64-row batch about the time of its 64
// singles.
var (
	fleetMix = mix{opQuery: 8, opTopK: 1, opBatch: 1}
	libMix   = mix{opQuery: 64, opTopK: 8, opBatch: 1}
)

// Quality floors: the lowest values measured on the reference box over seeds
// 1–20, minus 0.03 — not the issue's 0.02, because the driver picks the seeds:
// over 2 000 queries recall moves by 0.005 and precision by 0.01 from one seed
// to the next, and a floor three such steps under the lowest of ten seeds is
// one a seed will not fall through by chance. An answer set that scores below
// them is a wrong answer.
var qualityFloors = map[string][2]float64{ // recall, precision
	"fleet_query": {0.865, 0.45},
	"lib_query":   {0.86, 0.46},
}

// fixture is a workload after set-up: the target under load, its inputs, and
// the hooks the storage stages and the traced run need.
type fixture struct {
	corpus  *datagen.Corpus
	indexed int // domains [0, indexed) are in the index: the ground truth's corpus
	hasher  *lshensemble.Hasher
	target  target
	in      *queryInputs
	lap     []op   // the workload's traffic: one fixed sequence, replayed
	before  func() // runs ahead of every lap (a cache invalidation)
	lives   []*lshensemble.LiveIndex
	rates   [4]float64 // zero for lib_query (closed loop, per call)
	dir     string     // scratch directory of this set-up
	stop    func()

	// save persists the target the way its operator would and returns the
	// files to boot from and the bytes written; boot loads one of them.
	save func() (paths []string, size int64, err error)
	boot func(path string) (*lshensemble.LiveIndex, error)

	// Traced run only.
	nodes     []*node
	routerURL string
	records   func() []lshensemble.DomainRecord // the indexed corpus, sketched
	strs      func(domain int) []string         // raw strings of a domain; nil when queries arrive pre-sketched
	queryRec  func(i int) lshensemble.DomainRecord
}

type workload struct {
	name  string
	setup func(sc scale, seed uint64, dir string) (*fixture, error)
	// Laps per round of the primary and of the saturation phase: about a
	// second of each at full scale.
	primaryLaps, satLaps int
	// roundSeconds is what a round costs at full scale on the reference box:
	// --seconds buys seconds/roundSeconds rounds.
	roundSeconds float64
	// The regime the workload claims, which a run asserts: its answers come
	// from the result cache (else the cache must be useless).
	cached bool
}

var workloads = []workload{
	{name: "fleet_query", setup: setupFleetQuery, primaryLaps: 1, satLaps: 3, roundSeconds: 1.9, cached: true},
	{name: "lib_query", setup: setupLibQuery, primaryLaps: 1, satLaps: 2, roundSeconds: 1.0},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// queryPool samples pool query domains, and the quality check's larger sample,
// from [lo, hi) of the fixture's corpus.
func queryPool(fx *fixture, sc scale, lo, hi, pool int) {
	c := fx.corpus
	in := &queryInputs{domain: sampleDomains(c, lo, hi, pool, collisionWeights(c, fx.indexed)), quality: sampleDomains(c, lo, hi, sc.quality, nil)}
	in.keys = make([]string, len(in.domain))
	for i, d := range in.domain {
		in.keys[i] = c.Domains[d].Key
	}
	fx.in = in
}

// dealBatches cuts rows (pool positions), sorted by size, into len(rows)/count
// size classes of count rows; a class deals one row to each of count new
// batches of fx.in in an order the seed shuffles. Every batch thus holds one
// row of each size class. A batch's cost is the sum of its rows' power-law
// sizes; dealt at random, which batches drew the 10 000-value rows decided
// batch_p50_ms. It returns the new batches' numbers.
func dealBatches(fx *fixture, rng *xrand.RNG, rows []int32, count int) []int32 {
	in, c := fx.in, fx.corpus
	sort.SliceStable(rows, func(a, b int) bool {
		return len(c.Domains[in.domain[rows[a]]].Values) < len(c.Domains[in.domain[rows[b]]].Values)
	})
	first := len(in.batches)
	in.batches = append(in.batches, make([][]int32, count)...)
	for g := 0; g < len(rows)/count; g++ {
		class := rows[g*count : (g+1)*count]
		rng.Shuffle(count, func(i, j int) { class[i], class[j] = class[j], class[i] })
		for j, row := range class {
			in.batches[first+j] = append(in.batches[first+j], row)
		}
	}
	nth := make([]int32, count)
	for i := range nth {
		nth[i] = int32(first + i)
	}
	return nth
}

// servingLap lays out fleet_query's lap of n ops over the query pool: pool
// queries are drawn Zipf, so that the result cache hits, and every lap sends
// each of its batches once.
func servingLap(fx *fixture, sc scale, seed uint64, n int) []op {
	return buildLap(seed, n, fleetMix, func(rng *xrand.RNG, k opKind, count int) []int32 {
		if k == opBatch {
			return dealBatches(fx, rng, systematicZipf(sc.pool, count*sc.batchRows), count)
		}
		return systematicZipf(sc.pool, count)
	})
}

// httpBodies pre-encodes every request a lap can send, so the measured round
// trip carries no client-side JSON encoding of the inputs.
func httpBodies(fx *fixture, c *httpClient) *httpTarget {
	in := fx.in
	t := &httpTarget{c: c, in: in, strs: fx.strs}
	t.queryBody = make([][]byte, len(in.domain))
	t.topkBody = make([][]byte, len(in.domain))
	reqs := make([]serve.QueryRequest, len(in.domain))
	for i, d := range in.domain {
		reqs[i] = serve.QueryRequest{Values: fx.strs(d), Threshold: threshold}
		t.queryBody[i] = mustJSON(&reqs[i])
		t.topkBody[i] = mustJSON(&serve.TopKRequest{Values: reqs[i].Values, K: topK})
	}
	t.batchBody = make([][]byte, len(in.batches))
	for j, rows := range in.batches {
		br := serve.BatchRequest{Queries: make([]serve.QueryRequest, len(rows))}
		for r, qi := range rows {
			br.Queries[r] = reqs[qi]
		}
		t.batchBody[j] = mustJSON(&br)
	}
	return t
}

// snapshotBoot is the daemon's restart path: LoadSnapshot verifies the hash
// seed and decodes the index.
func snapshotBoot(seal int) func(string) (*lshensemble.LiveIndex, error) {
	return func(path string) (*lshensemble.LiveIndex, error) {
		return serve.LoadSnapshot(path, hashSeed, liveOptions(seal))
	}
}

// sized is what a save hook returns for files just written: the files and
// their total size.
func sized(paths ...string) ([]string, int64, error) {
	var size int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, 0, err
		}
		size += info.Size()
	}
	return paths, size, nil
}

// --- fleet_query ---

// shardAddrs are the shards' listen addresses. The router's ring hashes the
// shard URLs, so ephemeral ports would deal the keys out differently on every
// run. If an address is taken the shard falls back to an ephemeral port and
// the run is still valid, only less repeatable.
var shardAddrs = [2]string{"127.0.0.1:17461", "127.0.0.1:17462"}

func setupFleetQuery(sc scale, seed uint64, dir string) (*fixture, error) {
	n := sc.fleetDomains
	fx := &fixture{indexed: n, hasher: lshensemble.NewHasher(numHash, hashSeed), dir: dir, rates: scaledRates(sc)}
	fx.corpus = genCorpus(n, seed)
	c := fx.corpus
	fx.strs = func(d int) []string { return valueStrings(c.Domains[d].Values) }

	var shards []*node
	stopShards := func() {
		for _, s := range shards {
			s.stop()
		}
	}
	for i := 0; i < 2; i++ {
		idx, err := lshensemble.BuildLive(nil, liveOptions(sc.seal))
		if err != nil {
			stopShards()
			return nil, err
		}
		nd, err := startNode(idx, fx.hasher, filepath.Join(dir, fmt.Sprintf("shard-%d.snap", i)), shardAddrs[i])
		if err != nil {
			idx.Close()
			stopShards()
			return nil, err
		}
		shards = append(shards, nd)
		fx.lives = append(fx.lives, idx)
	}
	fl, err := startFleet(shards)
	if err != nil {
		stopShards()
		return nil, err
	}
	client := newHTTPClient(fl.url)
	fx.nodes, fx.routerURL = shards, fl.url

	// Preload every domain through the router's /add, one worker per shard,
	// each sending the keys its shard owns in corpus order and pausing at
	// every seal: with the shard addresses fixed, which domains share a
	// segment is then a function of the seed alone.
	ring := cluster.NewRing([]string{shards[0].url, shards[1].url}, cluster.RingOptions{})
	owned := make([][]int, len(shards))
	for i := 0; i < n; i++ {
		for s, nd := range shards {
			if ring.Primary(c.Domains[i].Key) == nd.url {
				owned[s] = append(owned[s], i)
			}
		}
	}
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j, d := range owned[s] {
				body := mustJSON(&serve.AddRequest{Key: c.Domains[d].Key, Values: fx.strs(d)})
				var a answerBody
				if _, err := client.post("/add", body, &a); err != nil || a.Partial {
					errs[s] = fmt.Errorf("preload: /add of %s: partial=%v, %v", c.Domains[d].Key, a.Partial, err)
					return
				}
				if (j+1)%sc.seal == 0 {
					waitIdle(shards[s].idx)
				}
			}
		}(s)
	}
	wg.Wait()
	for s := range shards {
		if errs[s] != nil {
			fl.stop()
			return nil, errs[s]
		}
	}

	queryPool(fx, sc, 0, n, sc.pool)
	fx.lap = servingLap(fx, sc, seed, sc.fleetLap)
	ht := httpBodies(fx, client)
	fx.target = ht

	// Signatures of the pool queries, for the rungs of the traced run that
	// go below the servers.
	poolRecs := make([]lshensemble.DomainRecord, len(fx.in.domain))
	for i, d := range fx.in.domain {
		poolRecs[i] = lshensemble.SketchStrings(fx.hasher, c.Domains[d].Key, fx.strs(d))
	}
	fx.queryRec = func(i int) lshensemble.DomainRecord { return poolRecs[i] }

	// Every pool query once, so the measured phases start with the result
	// caches in their steady state.
	for i := range fx.in.domain {
		if out := ht.query(0, i); !out.ok {
			fl.stop()
			return nil, fmt.Errorf("warm-up: query %d failed", i)
		}
	}

	// Save and compact go to each shard in turn, not through the router: its
	// /save and /compact fan out under the 2 s per-shard deadline, which a
	// 10 000-domain shard's fsync or rebuild can miss.
	admin := make([]*httpClient, len(shards))
	for i, s := range shards {
		admin[i] = newHTTPClient(s.url)
	}
	fx.stop = func() {
		client.close()
		for _, a := range admin {
			a.close()
		}
		fl.stop()
	}
	fx.save = func() ([]string, int64, error) {
		paths := make([]string, len(shards))
		for i, s := range shards {
			if _, err := admin[i].post("/save", nil, nil); err != nil {
				return nil, 0, err
			}
			paths[i] = s.snap
		}
		return sized(paths...)
	}
	fx.boot = snapshotBoot(sc.seal)
	fx.records = func() []lshensemble.DomainRecord { return sketchAll(fx.hasher, c, 0, n) }
	return fx, nil
}

// streamAdds feeds records through Add one by one, as an ingest would, and
// waits for the compactor whenever a seal falls due so that segment
// boundaries do not depend on scheduling.
func streamAdds(idx *lshensemble.LiveIndex, recs []lshensemble.DomainRecord) error {
	seal := idx.Options().SealThreshold
	for i := range recs {
		if _, err := idx.Add(recs[i]); err != nil {
			return fmt.Errorf("adding %s: %w", recs[i].Key, err)
		}
		if (i+1)%seal == 0 {
			waitIdle(idx)
		}
	}
	return nil
}

// --- lib_query ---

func setupLibQuery(sc scale, seed uint64, dir string) (*fixture, error) {
	n := sc.libDomains
	fx := &fixture{indexed: n, hasher: lshensemble.NewHasher(numHash, hashSeed), dir: dir}
	fx.corpus = genCorpus(n, seed)
	c := fx.corpus

	recs := sketchAll(fx.hasher, c, 0, n)
	idx, err := lshensemble.BuildLive(nil, liveOptions(sc.seal))
	if err != nil {
		return nil, err
	}
	fx.stop = idx.Close
	fx.lives = []*lshensemble.LiveIndex{idx}
	if err := streamAdds(idx, recs); err != nil {
		idx.Close()
		return nil, err
	}

	libTargetFor(fx, sc, seed, idx, recs)
	path := filepath.Join(dir, "lib.snap")
	fx.save = func() ([]string, int64, error) {
		if err := saveTo(path, idx); err != nil {
			return nil, 0, err
		}
		return sized(path)
	}
	fx.boot = func(p string) (*lshensemble.LiveIndex, error) { return loadFrom(p, liveOptions(sc.seal)) }
	fx.records = func() []lshensemble.DomainRecord { return sketchAll(fx.hasher, c, 0, n) }
	return fx, nil
}

// libTargetFor wires the in-process target. A lap sends distinct pre-sketched
// queries only — singles and top-k from the even positions of the pool, batch
// rows from the odd ones — and a new generation is published ahead of every
// lap, so the result cache never holds an answer the lap asks for.
func libTargetFor(fx *fixture, sc scale, seed uint64, idx *lshensemble.LiveIndex, recs []lshensemble.DomainRecord) {
	blocks := sc.libLap / libMix.total()
	singles := blocks * libMix[opQuery]
	queryPool(fx, sc, 0, fx.indexed, 2*singles)
	in := fx.in
	fx.lap = buildLap(seed, sc.libLap, libMix, func(rng *xrand.RNG, k opKind, count int) []int32 {
		out := make([]int32, count)
		switch k {
		case opQuery:
			for i := range out {
				out[i] = int32(2 * i)
			}
		case opTopK:
			for i, e := range systematicUniform(singles, count) {
				out[i] = 2 * e
			}
		case opBatch:
			rows := make([]int32, count*sc.libBatchRows)
			for i := range rows {
				rows[i] = int32(2*(i%singles) + 1)
			}
			return dealBatches(fx, rng, rows, count)
		}
		return out
	})

	lt := &libTarget{idx: idx, in: in, recs: recs, scratch: make([][]string, nproc)}
	lt.queries = make([]lshensemble.DomainRecord, len(in.domain))
	for i, d := range in.domain {
		lt.queries[i] = recs[d]
	}
	lt.batchQ = make([][]lshensemble.BatchQuery, len(in.batches))
	for j, rows := range in.batches {
		lt.batchQ[j] = make([]lshensemble.BatchQuery, len(rows))
		for r, qi := range rows {
			lt.batchQ[j][r] = lshensemble.BatchQuery{Sig: lt.queries[qi].Sig, Size: lt.queries[qi].Size, Threshold: threshold}
		}
	}
	fx.target = lt
	fx.queryRec = func(i int) lshensemble.DomainRecord { return lt.queries[i] }
	fx.before = func() { bumpGeneration(idx, fx.hasher) }
}

// bumpGeneration publishes a new snapshot of idx without changing what a
// query can match (a key is added and deleted again), which invalidates every
// entry of its result cache.
func bumpGeneration(idx *lshensemble.LiveIndex, h *lshensemble.Hasher) {
	rec := lshensemble.SketchStrings(h, "bench-generation-bump", []string{"bench-generation-bump"})
	_, _ = idx.Add(rec) // a well-formed record: Add rejects only malformed ones
	idx.Delete(rec.Key)
}

func saveTo(path string, idx *lshensemble.LiveIndex) error {
	var buf bytes.Buffer
	if err := lshensemble.SaveLive(&buf, idx); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func loadFrom(path string, opts lshensemble.LiveOptions) (*lshensemble.LiveIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lshensemble.LoadLive(f, opts)
}
