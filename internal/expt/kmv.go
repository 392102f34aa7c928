package expt

import (
	"sort"

	"lshensemble/internal/minhash"
)

// KMV is a k-minimum-values sketch (Beyer et al., SIGMOD 2007): the k
// smallest distinct base-hash values of a domain. Where a MinHash signature
// spends one permutation per slot, KMV keeps order statistics of a single
// hash, making it the compact choice for cardinality-aware set operations:
// distinct-value count, intersection and union sizes, and from them a
// containment estimate that knows both cardinalities instead of routing
// through the Jaccard-only identity.
//
// KMV supports no banding (its values carry no per-permutation alignment),
// so it cannot back an LSH index. The sketch frontier (sketch.go) scores it
// by brute force as a comparator on the accuracy-vs-bytes frontier.
//
// A sketch that has seen fewer than k distinct hashes holds its domain's
// complete hash set, and every estimate degenerates to the exact count.
type KMV struct {
	k int
	// heap is a max-heap of the kept values: the root is the largest kept
	// hash, so a smaller incoming value evicts it in O(log k).
	heap []uint64
	set  map[uint64]struct{}
}

// NewKMV returns an empty sketch keeping the k smallest distinct hashes.
// k must be positive.
func NewKMV(k int) *KMV {
	if k <= 0 {
		panic("expt: NewKMV requires k > 0")
	}
	return &KMV{k: k, set: make(map[uint64]struct{}, k)}
}

// PushHashed folds one base-hashed value (minhash.HashBytes and its kin: the
// hash space the MinHash permutations consume) into the sketch.
func (s *KMV) PushHashed(hv uint64) {
	if _, dup := s.set[hv]; dup {
		return
	}
	if len(s.heap) < s.k {
		s.set[hv] = struct{}{}
		s.heap = append(s.heap, hv)
		s.siftUp(len(s.heap) - 1)
		return
	}
	if hv >= s.heap[0] {
		return
	}
	delete(s.set, s.heap[0])
	s.set[hv] = struct{}{}
	s.heap[0] = hv
	s.siftDown(0)
}

// PushUint64 folds an integer-valued domain element into the sketch.
func (s *KMV) PushUint64(v uint64) { s.PushHashed(minhash.HashUint64(v)) }

func (s *KMV) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p] >= s.heap[i] {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *KMV) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && s.heap[l] > s.heap[m] {
			m = l
		}
		if r < n && s.heap[r] > s.heap[m] {
			m = r
		}
		if m == i {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// Values returns the kept hashes in ascending order (a fresh slice).
func (s *KMV) Values() []uint64 {
	out := append([]uint64(nil), s.heap...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// full reports whether the sketch has reached k values — only then is it a
// sample; below k it is the complete distinct hash set.
func (s *KMV) full() bool { return len(s.heap) >= s.k }

// Cardinality estimates the number of distinct values in the underlying
// domain. A non-full sketch counts exactly; a full one uses the unbiased
// order-statistic estimator (k−1)/U(k), where U(k) is the k-th smallest
// hash normalized to (0, 1] over the base-hash range.
func (s *KMV) Cardinality() float64 {
	if !s.full() {
		return float64(len(s.heap))
	}
	u := float64(s.heap[0]+1) / float64(minhash.MersennePrime)
	return float64(s.k-1) / u
}

// setOps computes the shared scaffolding of the binary estimators: the
// number of bottom-k′ union values (k′ = min of the two k parameters), how
// many of them occur in both sketches, and the k′-th union value for the
// union-cardinality estimate. exact is true when both sketches are complete
// hash sets, in which case inter/union are exact counts over all values.
func (s *KMV) setOps(o *KMV) (kk, inter, union int, kth uint64, exact bool) {
	av, bv := s.Values(), o.Values()
	if !s.full() && !o.full() {
		// Both complete: plain merge count.
		i, j := 0, 0
		for i < len(av) && j < len(bv) {
			switch {
			case av[i] == bv[j]:
				inter++
				union++
				i++
				j++
			case av[i] < bv[j]:
				union++
				i++
			default:
				union++
				j++
			}
		}
		union += (len(av) - i) + (len(bv) - j)
		return 0, inter, union, 0, true
	}
	kk = s.k
	if o.k < kk {
		kk = o.k
	}
	// Walk the merged order until k′ union values are consumed; count how
	// many of them both sketches kept.
	i, j := 0, 0
	for union < kk && (i < len(av) || j < len(bv)) {
		var v uint64
		switch {
		case i < len(av) && j < len(bv) && av[i] == bv[j]:
			v = av[i]
			inter++
			i++
			j++
		case j >= len(bv) || (i < len(av) && av[i] < bv[j]):
			v = av[i]
			i++
		default:
			v = bv[j]
			j++
		}
		union++
		kth = v
	}
	return kk, inter, union, kth, false
}

// Intersection estimates |A ∩ B|: the fraction ρ of the union's bottom-k′
// values present in both sketches, scaled by the estimated union
// cardinality (Beyer et al., Section 3.3).
func (s *KMV) Intersection(o *KMV) float64 {
	kk, inter, union, kth, exact := s.setOps(o)
	if exact {
		return float64(inter)
	}
	if union < kk {
		// Fewer than k′ distinct values exist overall: counts are exact.
		return float64(inter)
	}
	u := float64(kth+1) / float64(minhash.MersennePrime)
	unionEst := float64(kk-1) / u
	return float64(inter) / float64(kk) * unionEst
}

// Containment estimates t(S, O) = |S ∩ O| / |S|, the containment of the
// receiver's domain in o's. Unlike the MinHash path, which must convert a
// symmetric Jaccard estimate through Eq. 6 with externally supplied
// cardinalities, KMV estimates the intersection and |S| directly from the
// sketches — the cardinality-aware asymmetric estimate. Clamped to [0, 1].
func (s *KMV) Containment(o *KMV) float64 {
	card := s.Cardinality()
	if card <= 0 {
		return 0
	}
	t := s.Intersection(o) / card
	if t > 1 {
		t = 1
	}
	if t < 0 {
		t = 0
	}
	return t
}

// SizeBytes reports the sketch's footprint — k, a count and the kept values
// as 64-bit words: the byte budget a KMV point on the accuracy-vs-bytes
// frontier spends per domain.
func (s *KMV) SizeBytes() int { return 8 + 8*len(s.heap) }
