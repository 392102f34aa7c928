package main

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"lshensemble"
	"lshensemble/internal/datagen"
	"lshensemble/internal/eval"
	"lshensemble/internal/exact"
	"lshensemble/internal/par"
	"lshensemble/internal/xrand"
)

// Everything in this file is derived from the workload seed. The program
// under test never sees the seed: it receives only the generated domains,
// and its hash family is fixed below.

const (
	hashSeed  = 42  // the daemon's -seed default; not the workload seed
	numHash   = 256 // m
	threshold = 0.5 // t*, everywhere
	topK      = 10
)

// saltStream makes the lap an independent draw of the workload seed.
const saltStream = 0x9e3779b1

// genCorpus draws the paper's skew: power-law sizes, alpha 2.0, 10…20 000
// values (datagen.OpenData's defaults), with joinable clusters so that
// ground-truth answers at t* = 0.5 are non-trivial.
func genCorpus(n int, seed uint64) *datagen.Corpus {
	return datagen.OpenData(datagen.OpenDataConfig{NumDomains: n, Seed: seed})
}

// valueStrings renders a domain's value identifiers as the raw strings a
// client would send. The mapping is injective, so the sketches (which hash
// the strings) and the exact engine (which compares the identifiers) agree
// on set membership. One backing string per domain keeps set-up cheap.
func valueStrings(vals []uint64) []string {
	buf := make([]byte, 0, 14*len(vals))
	offs := make([]int, len(vals)+1)
	for i, v := range vals {
		buf = strconv.AppendUint(buf, v, 36)
		offs[i+1] = len(buf)
	}
	backing := string(buf)
	out := make([]string, len(vals))
	for i := range out {
		out[i] = backing[offs[i]:offs[i+1]]
	}
	return out
}

// sketchAll turns domains [lo, hi) into index-ready records through the same
// call a server makes per request (lshensemble.SketchStrings), from nproc
// goroutines.
func sketchAll(h *lshensemble.Hasher, c *datagen.Corpus, lo, hi int) []lshensemble.DomainRecord {
	recs := make([]lshensemble.DomainRecord, hi-lo)
	par.Drain(hi-lo, 0, func(_, i int) {
		d := c.Domains[lo+i]
		recs[i] = lshensemble.SketchStrings(h, d.Key, valueStrings(d.Values))
	})
	return recs
}

// Schedules are laid out by systematic sampling: count draws of a distribution
// are its quantiles at (i + ½)/count, not count independent draws. The sample
// has the distribution's shape exactly (rank r of a Zipf pool appears
// ~count·p(r) times), and since the size at each pool position is nearly the
// same for every seed (sampleDomains), so is a lap's cost profile: two seeds
// differ in the domains, their contents and the order of the ops, not in how
// many heavy queries they drew. With independent draws the heaviest 1 % of a
// power-law pool decides a lap's total time, and did: saturation throughput
// ranged 1 757–2 171 ops/s over six seeds.

// systematicUniform draws count indices in [0, n).
func systematicUniform(n, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(min(n-1, int((float64(i)+0.5)*float64(n)/float64(count))))
	}
	return out
}

// systematicZipf draws count ranks in [0, n) with probability ∝ 1/(rank+1),
// through the same continuous inverse CDF as xrand's Zipf(1, n).
func systematicZipf(n, count int) []int32 {
	out := make([]int32, count)
	for i := range out {
		q := (float64(i) + 0.5) / float64(count)
		out[i] = int32(min(n-1, int(math.Exp(q*math.Log(float64(n)+1))-1)))
	}
	return out
}

// mix is a traffic mix as integer weights per op kind.
type mix [numKinds]int

func (m mix) total() int {
	t := 0
	for _, w := range m {
		t += w
	}
	return t
}

// buildLap lays out one lap of n ops, n a multiple of the mix's total: every
// run of total consecutive ops holds the mix exactly, in the same order (a
// smooth weighted round-robin, which spreads each kind evenly), so that which
// request queues behind which heavy one does not depend on the seed. args
// returns the arguments of all count ops of a kind; the seed shuffles which
// position gets which.
func buildLap(seed uint64, n int, m mix, args func(rng *xrand.RNG, k opKind, count int) []int32) []op {
	rng := xrand.New(seed ^ saltStream)
	total := m.total()
	blocks := n / total
	var pending [numKinds][]int32
	for k := opKind(0); k < numKinds; k++ {
		if m[k] == 0 {
			continue
		}
		a := args(rng, k, blocks*m[k])
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		pending[k] = a
	}
	ops := make([]op, 0, n)
	var credit [numKinds]int
	for len(ops) < blocks*total {
		next := opKind(0)
		for k := opKind(0); k < numKinds; k++ {
			if credit[k] += m[k]; credit[k] > credit[next] {
				next = k
			}
		}
		credit[next] -= total
		ops = append(ops, op{kind: next, arg: pending[next][0]})
		pending[next] = pending[next][1:]
	}
	return ops
}

// qualityCheck scores the target's threshold answers to the given queries
// (corpus domains) against the exact engine (paper Eq. 27, with its
// empty-result convention). The queries are asked one after the other, in
// order, while the exact answers are worked out beside them: the tuner
// memoizes its banding on a quantized (x/q, t*) key, so which of two queries
// of one bucket arrives first decides the banding of both, and asked
// concurrently the same seed scored 0.90396 on one run and 0.90409 on the next.
// A query whose own key is missing from its answer is a failed operation: the
// query is an indexed domain, so containment is 1 and identical signatures
// collide in every band.
func qualityCheck(c *datagen.Corpus, indexed int, queries []int, answer func(d int) ([]string, bool)) (recall, precision float64, attempted, failed int) {
	engine := exact.Build(datagen.ExactDomains(&datagen.Corpus{Domains: c.Domains[:indexed]}))
	got, answered := make([][]string, len(queries)), make([]bool, len(queries))
	var asking sync.WaitGroup
	asking.Add(1)
	go func() {
		defer asking.Done()
		for i, d := range queries {
			got[i], answered[i] = answer(d)
		}
	}()
	truth := make([]map[string]bool, len(queries))
	par.Drain(len(queries), nproc, func(_, i int) {
		truth[i] = engine.Truth(c.Domains[queries[i]].Values, threshold)
	})
	asking.Wait()

	var avg eval.Averager
	for i, d := range queries {
		attempted++
		if !answered[i] || !slices.Contains(got[i], c.Domains[d].Key) {
			failed++
			continue
		}
		avg.Add(eval.PR(got[i], truth[i]))
	}
	return avg.Recall(), avg.Precision(), attempted, failed
}

// sampleDomains picks k distinct query domains from [lo, hi): one from each of
// k equal strata of the size-sorted range, returned in an order fixed by
// poolOrderSeed. Query sizes therefore follow the corpus's power law, rare
// 10k-value query included, but the size at each pool position is nearly the
// same for every seed — a plain uniform sample of 512 power-law sizes lets one
// or two huge domains land on the most popular Zipf ranks for some seeds and
// not others, and then the seed, not the program, sets the latencies.
//
// Which domain of a stratum: with weight nil the one in the middle; else the
// one of median weight (collisionWeights). Size fixes what a query costs to
// sketch; how many domains share a value with it fixes how many candidates
// come back, and that is heavy-tailed too: picked by size alone, Zipf rank 0,
// a sixth of fleet_query's traffic, drew an answer of 76 bytes on one seed
// and of 12 067 on the next, the lap's answers added up to 0.51–1.12 MB over
// six seeds, and batch_p50_ms followed them (1.8–2.5 ms, the same seeds high
// in five sets of runs). Picked by median weight: 0.30–0.52 MB.
func sampleDomains(c *datagen.Corpus, lo, hi, k int, weight []int) []int {
	bySize := make([]int, hi-lo)
	for i := range bySize {
		bySize[i] = lo + i
	}
	sort.SliceStable(bySize, func(a, b int) bool {
		return len(c.Domains[bySize[a]].Values) < len(c.Domains[bySize[b]].Values)
	})
	k = min(k, len(bySize))
	order := xrand.New(poolOrderSeed).Perm(k)
	out := make([]int, k)
	for s := 0; s < k; s++ {
		stratum := bySize[s*len(bySize)/k : (s+1)*len(bySize)/k]
		if weight != nil {
			sort.SliceStable(stratum, func(a, b int) bool { return weight[stratum[a]] < weight[stratum[b]] })
		}
		out[order[s]] = stratum[len(stratum)/2]
	}
	return out
}

// collisionWeights returns, for every one of the first indexed domains, how
// many times its values occur in the others: a stand-in, computed from the
// generated data alone, for how many candidates a query for it draws (with
// r = 1 bands a small query collides with nearly every domain it shares a
// value with). Occurrences are counted in a table of counters indexed by a
// hash of the value, a quarter the time of a map over some 2 M values; two
// values that share a counter add to each other's count, which moves a weight
// in the hundreds by a unit or two.
func collisionWeights(c *datagen.Corpus, indexed int) []int {
	total := 0
	for _, d := range c.Domains[:indexed] {
		total += len(d.Values)
	}
	shift := 64 - bits.Len(uint(2*total))
	slot := func(v uint64) uint64 { return v * 0x9e3779b97f4a7c15 >> shift }
	count := make([]int32, 1<<(64-shift))
	for _, d := range c.Domains[:indexed] {
		for _, v := range d.Values {
			count[slot(v)]++
		}
	}
	weight := make([]int, indexed)
	for i, d := range c.Domains[:indexed] {
		for _, v := range d.Values {
			weight[i] += int(count[slot(v)]) - 1
		}
	}
	return weight
}

// poolOrderSeed fixes which size stratum sits at which pool position (and so
// at which Zipf rank) for every workload seed.
const poolOrderSeed = 0x5eed0fda7a
