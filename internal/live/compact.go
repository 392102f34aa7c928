package live

import (
	"cmp"
	"maps"
	"slices"
	"sort"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
)

// This file is the write-behind half of the live index: one rewrite that
// seals the unsealed buffer, merges segments, or both at once, and the
// background goroutine that drives it. All heavy work — gathering the
// survivors, core.Build over them (the parallel construction path) and the
// sweep for tombstones that shadow nothing any more — happens OUTSIDE any
// lock the write or read paths touch; the writer mutex covers only the
// pointer swap, and readers never take a lock at all — a query in flight
// keeps the snapshot it loaded.
//
// Sequence numbers make this sound under concurrent writes: a segment keeps
// each entry's seq, so tombstones recorded *while* a build is running still
// apply to the freshly built segment at query time (the tombstone's seq
// exceeds the sealed entries' seqs). A rewrite filters with the tombstones
// visible when it starts and never loses a later delete.

// compactor is the background loop. It wakes on a nudge (sent by Add when
// the buffer crosses SealThreshold) and runs the pipeline until the shape
// is within thresholds again.
func (x *Index) compactor() {
	defer close(x.done)
	for {
		select {
		case <-x.stop:
			return
		case <-x.nudge:
		}
		x.compactMu.Lock()
		for x.rewrite(nil, x.opts.SealThreshold) || x.mergeIfCrowded() {
			select {
			case <-x.stop:
				x.compactMu.Unlock()
				return
			default:
			}
		}
		x.compactMu.Unlock()
	}
}

// kick nudges the compactor without blocking (the channel holds one pending
// nudge; more are redundant).
func (x *Index) kick() {
	select {
	case x.nudge <- struct{}{}:
	default:
	}
}

// Close stops the background compactor and waits for it to finish the
// operation in flight. The index remains fully usable afterwards — only
// automatic compaction stops. Close is idempotent.
func (x *Index) Close() {
	x.closeOnce.Do(func() { close(x.stop) })
	<-x.done
}

// Flush synchronously seals the current buffer into a segment (a no-op when
// the buffer is empty). Callers that need the buffer drained — e.g. before
// measuring pure-segment query cost — use it; normal ingest relies on the
// background seal instead. Like every seal it drops each tombstone that no
// longer shadows an entry.
func (x *Index) Flush() {
	x.compactMu.Lock()
	x.rewrite(nil, 1)
	x.compactMu.Unlock()
}

// Compact synchronously runs full compaction: one rewrite builds the buffer
// and every segment into (at most) one segment, dropping every dead entry and
// every tombstone. The result answers queries exactly like a fresh core.Build
// over the surviving records.
func (x *Index) Compact() {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	sn := x.snap.Load()
	if len(sn.buf) > 0 || len(sn.segs) > 1 || len(sn.segs) == 1 && len(sn.tombs) > 0 {
		x.rewrite(sn.segs, 1)
	}
}

// newSegment is the one place a segment is built from records: the core
// index over recs, whose signatures sig gives (core.BuildFrom; seqs aligned
// with them, ascending), its planner metadata and resident estimate, spilled
// to a segment file when the index has a data directory. Build and rewrite
// call it outside the writer lock.
func (x *Index) newSegment(recs []domain.Record, seqs []uint64, sig func(dst []uint64, i int) []uint64) (*segment, error) {
	idx, err := core.BuildFrom(recs, sig, x.opts.Options)
	if err != nil {
		return nil, err
	}
	seg := &segment{idx: idx, seqs: seqs, meta: buildSegMeta(idx)}
	seg.resident = heapSegmentResident(idx, seg.meta)
	return x.persistSegment(seg), nil
}

// rewrite is the one way the segment set changes after Build or Load: it
// builds the live entries of victims (segments of the current snapshot), plus
// those of the whole buffer when at least sealMin ≥ 1 are buffered, into one
// new segment that replaces the victims, and publishes the swap. It reports
// whether it published; a seal whose entries were all dead still trims the
// buffer. A rewrite that sealed counts a seal, one with victims a merge.
//
// The caller must hold compactMu, which keeps the loaded snapshot's segments
// the current ones until the swap. Writers keep appending and deleting while
// the segment builds; under the writer lock the rewrite only swaps the
// segments, carries the entries appended since over into a fresh buffer if it
// sealed, drops the tombstones its sweep found inert and publishes.
func (x *Index) rewrite(victims []*segment, sealMin int) bool {
	sn := x.snap.Load()
	seal := sealMin > 0 && len(sn.buf) >= sealMin
	if !seal && len(victims) == 0 {
		return false
	}
	// Gather the survivors, then sort them by seq: each victim is ascending,
	// but the victims' seq ranges can interleave.
	type survivor struct {
		rec domain.Record
		seq uint64
		seg *segment // nil: entry id of the buffer
		id  int
	}
	var all []survivor
	for _, seg := range victims {
		for id, seq := range seg.seqs {
			if key := seg.idx.Key(uint32(id)); sn.alive(key, seq) {
				all = append(all, survivor{domain.Record{Key: key, Size: seg.idx.Size(uint32(id))}, seq, seg, id})
			}
		}
	}
	for i := 0; seal && i < len(sn.buf); i++ {
		if e := &sn.buf[i]; sn.alive(e.key, e.seq) {
			all = append(all, survivor{domain.Record{Key: e.key, Size: e.size}, e.seq, nil, i})
		}
	}
	slices.SortFunc(all, func(a, b survivor) int { return cmp.Compare(a.seq, b.seq) })

	segs := make([]*segment, 0, len(sn.segs)+1)
	for _, seg := range sn.segs {
		if !slices.Contains(victims, seg) {
			segs = append(segs, seg)
		}
	}
	var rest []entry // what stays buffered of sn's entries
	if !seal {
		rest = sn.buf
	}
	swept := sweep(sn.tombs, segs, rest)

	if len(all) > 0 {
		recs := make([]domain.Record, len(all))
		seqs := make([]uint64, len(all))
		for i, s := range all {
			recs[i], seqs[i] = s.rec, s.seq
		}
		// The build reads each signature, widened one record at a time, out of
		// its victim's store or the buffer's arena into the new segment's own
		// store: it holds no views into the victims, which can unmap once their
		// last reader drains. Only this compactor retires them, so they stay
		// open until the swap below.
		seg, err := x.newSegment(recs, seqs, func(dst []uint64, i int) []uint64 {
			s := all[i]
			if s.seg == nil {
				return sn.sigs.widen(dst, s.id)
			}
			return s.seg.idx.AppendSignature(dst, uint32(s.id))
		})
		if err != nil {
			return false // unreachable: every record was validated at Add time
		}
		segs = append(segs, seg)
		slices.SortFunc(segs, func(a, b *segment) int { return cmp.Compare(a.minSeq(), b.minSeq()) })
	}

	var fresh buffer // allocated, its filter cleared, before the lock
	if seal {
		fresh = x.newBuffer()
	}
	x.mu.Lock()
	cur := x.snap.Load()
	st := cur.state
	if seal {
		// Entries appended while the build ran stay buffered, carried over
		// into a fresh buffer: the sealed prefix's arrays can be collected once
		// the old snapshots die, and the fresh filter stops answering "maybe"
		// for everything the seal just removed.
		st.buffer = fresh
		var sig minhash.Signature
		for i := len(sn.buf); i < len(cur.buf); i++ {
			sig = cur.sigs.widen(sig[:0], i)
			st.buffer = st.with(cur.buf[i], sig, x.opts.RMax, x.opts.Sketch.LeadMask())
		}
	}
	st.segs = segs
	st.tombs = unswept(cur.tombs, swept)
	st.shadow = shadows(segs, st.tombs)
	old := x.publishLocked(st)
	x.mu.Unlock()
	x.releaseSnap(old)
	if seal {
		x.seals.Add(1)
	}
	if len(victims) > 0 {
		x.merges.Add(1)
	}
	return true
}

const tierFanIn = 3 // segments of one size tier that merge into one of the next

// mergeIfCrowded runs the merge mergeVictims picks, if any. The caller must
// hold compactMu.
func (x *Index) mergeIfCrowded() bool {
	victims := mergeVictims(x.snap.Load().segs, x.opts.SealThreshold, x.opts.MaxSegments)
	return victims != nil && x.rewrite(victims, 0)
}

// mergeVictims picks the segments the next merge rewrites, or nil. A segment
// of n entries is in size tier k when seal·3^k/2 ≤ n < seal·3^(k+1)/2 (tier 0
// takes anything smaller), so a merge that dropped dead entries still moves
// up a tier. The lowest tier holding tierFanIn segments merges its smallest
// tierFanIn; failing that, more than max segments merge their two smallest.
func mergeVictims(segs []*segment, seal, max int) []*segment {
	bySize := append([]*segment(nil), segs...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].idx.Len() < bySize[j].idx.Len() })
	tier := func(seg *segment) (k int) {
		for m := 2 * seg.idx.Len() / seal; m >= tierFanIn; m /= tierFanIn {
			k++
		}
		return k
	}
	for i := 0; i+tierFanIn <= len(bySize); i++ {
		if tier(bySize[i]) == tier(bySize[i+tierFanIn-1]) {
			return bySize[i : i+tierFanIn]
		}
	}
	if len(bySize) > max {
		return bySize[:2]
	}
	return nil
}

// sweep returns the tombstones that shadow no entry of segs or buf, the
// entries a rewrite leaves in place: (key, s) shadows an entry of key whose
// seq is below s. The segments' key Bloom filters skip those that hold none
// of the keys still in question (a false positive only costs one segment
// scan, never a wrongly dropped tombstone). Entries the rewrite builds are
// alive under tombs, and entries added after them are newer than every one
// of them, so neither can be shadowed.
func sweep(tombs map[string]uint64, segs []*segment, buf []entry) map[string]uint64 {
	swept := maps.Clone(tombs)
	shadowed := func(key string, seq uint64) {
		if s, ok := swept[key]; ok && seq < s {
			delete(swept, key)
		}
	}
	for _, seg := range segs {
		if !mayShadowAny(seg.meta.keys, swept) {
			continue
		}
		for id, seq := range seg.seqs {
			shadowed(seg.idx.Key(uint32(id)), seq)
		}
	}
	for i := range buf {
		shadowed(buf[i].key, buf[i].seq)
	}
	return swept
}

// unswept returns tombs without each swept tombstone whose seq is still the
// one the sweep saw; a key deleted or replaced again since keeps its newer
// tombstone. tombs is shared, never edited: readers hold it lock-free.
func unswept(tombs, swept map[string]uint64) map[string]uint64 {
	if len(swept) == 0 {
		return tombs
	}
	next := maps.Clone(tombs)
	maps.DeleteFunc(next, func(key string, seq uint64) bool { return swept[key] == seq })
	return next
}

// mayShadowAny reports whether any tombstoned key might occur in a segment
// whose key Bloom filter is f.
func mayShadowAny(f *bloom.Filter, tombs map[string]uint64) bool {
	for k := range tombs {
		if mayHold(f, k) {
			return true
		}
	}
	return false
}

// mayHold reports whether a segment whose key Bloom filter is f (nil: none,
// as in an empty segment) may hold an entry of key.
func mayHold(f *bloom.Filter, key string) bool { return f == nil || f.MayContainString(key) }

// shadows returns the shadow bits of segs under tombs (state.shadow).
func shadows(segs []*segment, tombs map[string]uint64) []bool {
	bits := make([]bool, len(segs))
	for i, seg := range segs {
		bits[i] = mayShadowAny(seg.meta.keys, tombs)
	}
	return bits
}

// shadowKey returns shadow with the bits of the segments that may hold key
// set, copied before its first change: published snapshots share it.
func shadowKey(shadow []bool, segs []*segment, key string) []bool {
	copied := false
	for i, seg := range segs {
		if !shadow[i] && mayHold(seg.meta.keys, key) {
			if !copied {
				shadow, copied = slices.Clone(shadow), true
			}
			shadow[i] = true
		}
	}
	return shadow
}
