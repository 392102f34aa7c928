// Package cluster shards a fleet of lshensembled daemons behind one
// stateless router: keys place onto shards by consistent hashing and
// queries scatter to every shard and merge, so the fleet answers exactly
// like one big index — minus whatever a dead shard held, which is reported
// as a partial result instead of an error.
//
// The package splits into three pieces: Ring (this file) places keys,
// Client speaks the wire (internal/wire) to one shard, and Router glues them
// into an http.Handler with health-checked membership. It links no index.
//
// A Client talks to its shard on two transports. A pre-sketched query leg,
// an add and a delete are each one record, one write and one read, on a
// record connection: an HTTP/1.1 connection the shard upgraded at GET
// /records, kept in a pool of at most 32 idle ones per shard. A leg takes
// one or dials a new one; the connection's deadline follows the leg's
// context (a cancel unblocks it), it goes back to the pool only after a
// complete answer, and any error closes it. A connection idle in the pool
// for 60 s is closed before the shard's 90 s idle limit closes it. A reused
// connection that fails before its answer's first byte — the shard
// restarted — is retried once on a fresh one and the pool is emptied, so a
// restarted shard costs one failed exchange and a dial, not a partial
// answer. Health probes, /stats and the admin calls are HTTP. Router.Close
// releases both.
package cluster

import (
	"math"
	"sort"
	"strconv"
)

// RingOptions shape the consistent-hash ring.
type RingOptions struct {
	// Vnodes is the number of virtual nodes per shard. More vnodes smooth
	// the keyspace split at the cost of a larger ring. Default 64.
	Vnodes int
	// LoadFactor caps any shard's keyspace share at LoadFactor/N (the
	// bounded-load idea): arcs that would push a shard past its cap are
	// handed to the next shard clockwise with room. The cap is a pure
	// function of membership — every stateless router derives the same
	// assignment. Must be ≥ 1; default 1.25. Math.Inf(1) disables capping.
	LoadFactor float64
	// Replication is how many distinct shards own each key. Writes go to
	// all owners, so one shard death loses no keys when Replication ≥ 2.
	// Clamped to the shard count. Default 1.
	Replication int
}

func (o *RingOptions) defaults() {
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.LoadFactor < 1 {
		o.LoadFactor = 1.25
	}
	if o.Replication <= 0 {
		o.Replication = 1
	}
}

// point is one virtual node: a position on the ring and the shard that
// placed it there.
type point struct {
	h    uint64
	node int32
}

// Ring is an immutable consistent-hash ring over a set of shard names.
// Build a new one whenever membership changes; lookups are lock-free.
//
// Placement is the classic clockwise rule — a key belongs to the first
// virtual node at or after its hash — refined by a deterministic
// bounded-load pass: walking the ring once, any arc whose natural owner is
// already at its LoadFactor/N keyspace cap is reassigned to the next shard
// clockwise with capacity. Because the pass depends only on the sorted
// membership and the options, every router instance computes byte-identical
// ownership without coordinating.
type Ring struct {
	nodes       []string
	points      []point
	owner       []int32 // owner[i]: shard owning the arc ending at points[i]
	replication int
}

// ringHash is FNV-1a 64 with a murmur-style finalizer, inlined so key
// placement never allocates. Bare FNV-1a leaves similar short strings
// ("shard-3#17", "shard-3#18") clustered in the high bits, which is exactly
// what ring position sorts by — the finalizer avalanches them so arc
// lengths come out near-uniform.
func ringHash(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given shard names (deduplicated, order
// irrelevant). A nil or empty member list yields an empty ring whose
// lookups return nothing.
func NewRing(members []string, o RingOptions) *Ring {
	o.defaults()
	nodes := append([]string(nil), members...)
	sort.Strings(nodes)
	nodes = uniq(nodes)
	r := &Ring{nodes: nodes, replication: o.Replication}
	if r.replication > len(nodes) {
		r.replication = len(nodes)
	}
	if len(nodes) == 0 {
		return r
	}

	r.points = make([]point, 0, len(nodes)*o.Vnodes)
	for ni, name := range nodes {
		for v := 0; v < o.Vnodes; v++ {
			h := ringHash(name + "#" + strconv.Itoa(v))
			r.points = append(r.points, point{h: h, node: int32(ni)})
		}
	}
	// Ties broken by node index so the ring order is total and deterministic.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})

	// Bounded-load pass. Capacity is measured in keyspace (arc length out of
	// 2^64); LoadFactor/N of it per shard. Since the caps sum to at least the
	// whole ring, the fallback (keep the natural owner) only fires on
	// floating-point slack.
	capacity := uint64(math.MaxUint64)
	if f := o.LoadFactor / float64(len(nodes)); f < 1 {
		capacity = uint64(math.Ldexp(f, 64))
	}
	remaining := make([]uint64, len(nodes))
	for i := range remaining {
		remaining[i] = capacity
	}
	m := len(r.points)
	r.owner = make([]int32, m)
	for i := 0; i < m; i++ {
		// Arc ending at points[i] starts just after the previous point;
		// uint64 subtraction wraps correctly for the arc through zero.
		length := r.points[i].h - r.points[(i+m-1)%m].h
		assigned := false
		for j := 0; j < m; j++ {
			cand := r.points[(i+j)%m].node
			if remaining[cand] >= length {
				remaining[cand] -= length
				r.owner[i] = cand
				assigned = true
				break
			}
		}
		if !assigned {
			r.owner[i] = r.points[i].node
		}
	}
	return r
}

func uniq(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Replication returns the effective copies per key (clamped to membership).
func (r *Ring) Replication() int { return r.replication }

// arcIndex finds the arc containing hash h: the first point at or after h,
// wrapping past the top of the ring.
func (r *Ring) arcIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Primary returns the shard owning the key, or "" on an empty ring.
func (r *Ring) Primary(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.owner[r.arcIndex(ringHash(key))]]
}

// Owners returns the Replication distinct shards owning the key, primary
// first: the (possibly load-shifted) arc owner, then the next distinct
// shards clockwise. Nil on an empty ring.
func (r *Ring) Owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	i := r.arcIndex(ringHash(key))
	owners := make([]string, 0, r.replication)
	owners = append(owners, r.nodes[r.owner[i]])
	m := len(r.points)
	for j := 1; j < m && len(owners) < r.replication; j++ {
		name := r.nodes[r.points[(i+j)%m].node]
		if !containsStr(owners, name) {
			owners = append(owners, name)
		}
	}
	return owners
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// Shares returns each shard's fraction of the keyspace after the
// bounded-load pass — the quantity LoadFactor caps. Diagnostic; also served
// on the router's /ring endpoint.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.nodes))
	for _, n := range r.nodes {
		shares[n] = 0
	}
	m := len(r.points)
	for i := 0; i < m; i++ {
		length := r.points[i].h - r.points[(i+m-1)%m].h
		shares[r.nodes[r.owner[i]]] += math.Ldexp(float64(length), -64)
	}
	return shares
}
