package live

import (
	"cmp"
	"slices"
	"sort"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
)

// This file is the write-behind half of the live index: sealing the
// unsealed buffer into a frozen segment, merging small segments into larger
// ones, and the background goroutine that drives both. All heavy work
// (core.Build over the surviving records, using the parallel construction
// path) happens OUTSIDE any lock the write or read paths touch; only the
// final pointer swap takes the writer mutex, and readers never take a lock
// at all — a query in flight keeps the snapshot it loaded.
//
// Sequence numbers make this sound under concurrent writes: a segment keeps
// each entry's seq, so tombstones recorded *while* a build is running still
// apply to the freshly built segment at query time (the tombstone's seq
// exceeds the sealed entries' seqs). Compaction filters with the tombstones
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
		for x.sealIfFull() || x.mergeIfCrowded() {
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
// background seal instead.
func (x *Index) Flush() {
	x.compactMu.Lock()
	x.seal(1)
	x.compactMu.Unlock()
}

// Compact synchronously runs full compaction: the buffer is sealed and all
// segments merge into (at most) one, dropping every dead entry and every
// tombstone that no longer shadows anything. The result answers queries
// exactly like a fresh core.Build over the surviving records.
func (x *Index) Compact() {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.seal(1)
	sn := x.snap.Load()
	if len(sn.segs) == 0 || (len(sn.segs) == 1 && len(sn.tombs) == 0) {
		return
	}
	x.mergeSegments(sn.segs)
}

// newSegment is the one place a segment is built from records: the core
// index over recs (seqs aligned with them, ascending), its planner metadata
// and resident estimate, spilled to a segment file when the index has a data
// directory. Build, seal and merge all call it outside the writer lock.
func (x *Index) newSegment(recs []core.Record, seqs []uint64) (*segment, error) {
	idx, err := core.Build(recs, x.opts.Options)
	if err != nil {
		return nil, err
	}
	seg := &segment{idx: idx, seqs: seqs, meta: buildSegMeta(idx)}
	seg.resident = heapSegmentResident(idx, seg.meta)
	return x.persistSegment(seg), nil
}

// sealIfFull seals when the buffer has crossed the threshold.
func (x *Index) sealIfFull() bool {
	return x.seal(x.opts.SealThreshold)
}

// seal freezes the first len(buf) buffered entries (as of the snapshot it
// loads) into a new segment, provided at least min are buffered. Dead
// entries are dropped during the build. It reports whether anything was
// sealed (including a pure trim, when every buffered entry was dead).
//
// The caller must hold compactMu. Writers keep appending while the segment
// builds; the publish step moves only the sealed prefix out of the buffer.
func (x *Index) seal(min int) bool {
	sn := x.snap.Load()
	buf := sn.buf
	if min < 1 {
		min = 1
	}
	if len(buf) < min {
		return false
	}
	recs := make([]core.Record, 0, len(buf))
	seqs := make([]uint64, 0, len(buf))
	for i := range buf {
		e := &buf[i]
		if !sn.alive(e.rec.Key, e.seq) {
			continue
		}
		recs = append(recs, e.rec)
		seqs = append(seqs, e.seq)
	}
	var seg *segment
	if len(recs) > 0 {
		// Built, and spilled, outside the writer lock: only the pointer swap
		// below blocks writers.
		var err error
		if seg, err = x.newSegment(recs, seqs); err != nil {
			// Unreachable: every record was validated at Add time. Leaving
			// the buffer as-is keeps the index correct (just unsealed).
			return false
		}
	}

	x.mu.Lock()
	cur := x.snap.Load()
	// Entries appended while the build ran stay buffered; relocating them to
	// a fresh backing array lets the sealed prefix's array be collected once
	// the old snapshots die. The buffer Bloom filter is rebuilt over the
	// carried-over entries so it stops answering "maybe" for everything the
	// seal just removed.
	rest := cur.buf[len(buf):]
	back := make([]entry, len(rest), len(rest)+x.opts.SealThreshold)
	copy(back, rest)
	x.bufBack = back
	bufMax := 0
	bb := x.newBufBloom()
	for i := range back {
		if s := back[i].rec.Size; s > bufMax {
			bufMax = s
		}
		addBufLeads(bb, back[i].rec.Sig, x.opts.RMax, x.opts.Sketch.Mask())
	}
	x.bufBloom = bb
	segs := cur.segs
	if seg != nil {
		segs = append(append(make([]*segment, 0, len(cur.segs)+1), cur.segs...), seg)
	}
	next := &snapshot{segs: segs, buf: back, tombs: gcTombs(cur.tombs, segs, back), bufMax: bufMax, bufBloom: bb}
	old := x.publishLocked(next, cur, true)
	x.mu.Unlock()
	x.releaseSnap(old)
	x.seals.Add(1)
	return true
}

const tierFanIn = 3 // segments of one size tier that merge into one of the next

// mergeIfCrowded runs the merge mergeVictims picks, if any. The caller must
// hold compactMu.
func (x *Index) mergeIfCrowded() bool {
	victims := mergeVictims(x.snap.Load().segs, x.opts.SealThreshold, x.opts.MaxSegments)
	if victims != nil {
		x.mergeSegments(victims)
	}
	return victims != nil
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

// mergeSegments rebuilds the given segments (identified by pointer in the
// current snapshot) into at most one new segment holding their surviving
// entries, and publishes the swap. Every merge runs the exact per-key
// tombstone sweep (the segment key Blooms make it cheap — see
// exactGCTombs), so incremental merges retire tombstones as precisely as
// full compaction does. The caller must hold compactMu.
func (x *Index) mergeSegments(victims []*segment) {
	sn := x.snap.Load()
	// Gather the survivors, then sort them by seq: each victim is ascending,
	// but the victims' seq ranges can interleave.
	type survivor struct {
		rec core.Record
		seq uint64
	}
	entries := 0
	for _, seg := range victims {
		entries += seg.idx.Len()
	}
	all := make([]survivor, 0, entries)
	// One arena of widened signatures, which core.Build copies out of.
	arena := make([]uint64, 0, entries*x.opts.NumHash)
	for _, seg := range victims {
		for id := 0; id < seg.idx.Len(); id++ {
			key := seg.idx.Key(uint32(id))
			if !sn.alive(key, seg.seqs[id]) {
				continue
			}
			off := len(arena)
			arena = seg.idx.AppendSignature(arena, uint32(id))
			rec := core.Record{Key: key, Size: seg.idx.Size(uint32(id)), Sig: arena[off:len(arena):len(arena)]}
			all = append(all, survivor{rec, seg.seqs[id]})
		}
	}
	slices.SortFunc(all, func(a, b survivor) int { return cmp.Compare(a.seq, b.seq) })
	recs := make([]core.Record, len(all))
	seqs := make([]uint64, len(all))
	for i, s := range all {
		recs[i], seqs[i] = s.rec, s.seq
	}

	var merged *segment
	if len(recs) > 0 {
		// The build copies every signature into the new segment's own store,
		// so the merged segment holds no views into the victims — they can
		// unmap once their last reader drains.
		var err error
		if merged, err = x.newSegment(recs, seqs); err != nil {
			return // unreachable: inputs came from validated segments
		}
	}

	x.mu.Lock()
	cur := x.snap.Load()
	victimSet := make(map[*segment]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}
	segs := make([]*segment, 0, len(cur.segs))
	for _, seg := range cur.segs {
		if !victimSet[seg] {
			segs = append(segs, seg)
		}
	}
	if merged != nil {
		segs = append(segs, merged)
		sort.Slice(segs, func(i, j int) bool { return segs[i].minSeq() < segs[j].minSeq() })
	}
	tombs := exactGCTombs(cur.tombs, segs, cur.buf)
	next := &snapshot{segs: segs, buf: cur.buf, tombs: tombs, bufMax: cur.bufMax, bufBloom: cur.bufBloom}
	old := x.publishLocked(next, cur, true)
	x.mu.Unlock()
	x.releaseSnap(old)
	x.merges.Add(1)
}

// gcTombs drops the tombstones that can no longer shadow anything: a
// tombstone with sequence number s kills only entries with seq < s, so once
// every remaining entry's seq is >= s it is inert. This is the cheap
// O(tombstones) global-minimum bound used on every incremental publish;
// full Compact pays for the per-key sweep (exactGCTombs) instead, which is
// what lets it reach the empty-tombstone state.
func gcTombs(tombs map[string]uint64, segs []*segment, buf []entry) map[string]uint64 {
	if len(tombs) == 0 {
		return tombs
	}
	var minSeq uint64
	found := false
	for _, seg := range segs {
		if s := seg.minSeq(); !found || s < minSeq {
			minSeq, found = s, true
		}
	}
	if len(buf) > 0 {
		if s := buf[0].seq; !found || s < minSeq {
			minSeq, found = s, true
		}
	}
	if !found {
		return nil // no entries anywhere: nothing to shadow
	}
	drop := 0
	for _, s := range tombs {
		if s <= minSeq {
			drop++
		}
	}
	if drop == 0 {
		return tombs
	}
	next := make(map[string]uint64, len(tombs)-drop)
	for k, s := range tombs {
		if s > minSeq {
			next[k] = s
		}
	}
	return next
}

// exactGCTombs keeps only the tombstones that still shadow a physically
// present entry: (key, s) survives iff some remaining entry of that key has
// seq < s. It runs on every merge; the per-segment key Bloom filters keep
// the sweep cheap by skipping segments that definitely hold none of the
// tombstoned keys (a false positive only costs one segment scan, never a
// wrongly dropped tombstone). Writes racing the merge stay correctly
// shadowed: their tombstones name entries that still exist, so they are
// kept.
func exactGCTombs(tombs map[string]uint64, segs []*segment, buf []entry) map[string]uint64 {
	if len(tombs) == 0 {
		return tombs
	}
	var next map[string]uint64
	keep := func(key string, seq uint64) {
		if s, ok := tombs[key]; ok && seq < s {
			if next == nil {
				next = make(map[string]uint64)
			}
			next[key] = s
		}
	}
	for _, seg := range segs {
		if seg.meta != nil && seg.meta.keys != nil && !mayShadowAny(seg.meta.keys, tombs) {
			continue
		}
		for id := 0; id < seg.idx.Len(); id++ {
			keep(seg.idx.Key(uint32(id)), seg.seqs[id])
		}
	}
	for i := range buf {
		keep(buf[i].rec.Key, buf[i].seq)
	}
	return next
}

// mayShadowAny reports whether any tombstoned key might occur in a segment
// whose key Bloom filter is f.
func mayShadowAny(f *bloom.Filter, tombs map[string]uint64) bool {
	for k := range tombs {
		if f.MayContainString(k) {
			return true
		}
	}
	return false
}
