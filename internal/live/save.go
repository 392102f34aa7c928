package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"path/filepath"
	"sort"

	"lshensemble/internal/bloom"
	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
	"lshensemble/internal/tune"
)

// Binary snapshot format (all integers little-endian):
//
//	magic "LIVE" | version u32
//	numHash u32 | rMax u32 | sketch u32 (v4+) | seq u64
//	nsegs u32, per segment (v3 leads each with a kind byte):
//	    kind 0 (inline): n u32, seqs [n]u64, core index bytes (self-framed),
//	        and from version 2 the planner metadata:
//	        minSize u64 | maxSize u64 | maxBound u64 | keys bloom | leads bloom
//	    kind 1 (segment-file reference, v3 only):
//	        namelen u32 | name | fileSize u64 | headerCRC u64
//	nbuf u32, per entry: seq u64, keylen u32, key, size u64, sig [numHash]u64
//	ntombs u32, per tombstone: keylen u32, key, seq u64
//	crc u64 (v3 only: crc64-ECMA over every preceding byte of the encoding)
//
// Version history: v1 predates the query planner and carries no segment
// metadata; v2 appends it per segment so a load does not pay to re-derive
// the Bloom filters; v3 is the out-of-core manifest — a spilled segment is
// referenced by file name (resolved against Options.DataDir and verified by
// size and header checksum) instead of being embedded, tombstones are
// written in sorted key order so equal states encode byte-identically, and
// a trailing checksum rejects truncation or corruption anywhere in the
// snapshot. A v3 segment without a file (no DataDir, or its spill failed)
// falls back to the v2-style inline block per segment, so Save can always
// encode. v4 adds the sketch-backend tag (core.SketchBackend) to the header;
// v1–v3 snapshots predate the pluggable backends and always load as
// Minwise64. Load accepts all four versions — a v1 snapshot rebuilds its
// metadata from the decoded segments (buildSegMeta is a pure function of
// the core index, so the rebuilt planner state is identical to what seal
// time would have produced). Save always writes the current version.
//
// Save serializes a point-in-time snapshot: it is safe to call while
// writers and the compactor run (they publish new snapshots; the one being
// written stays frozen). With DataDir set it first spills any segment that
// has no file yet, so the manifest it writes is self-contained. Load
// rebuilds the writer-side state (key → seq map, live count) by replaying
// the tombstones over the entries.

var liveMagic = [4]byte{'L', 'I', 'V', 'E'}

const (
	liveVersion   = 4
	liveVersionV1 = 1 // pre-planner: no per-segment metadata block
	liveVersionV2 = 2 // inline planner metadata, no manifest
	liveVersionV3 = 3 // manifest + checksum, implicit Minwise64 backend
)

// Segment kind bytes of the v3 encoding.
const (
	segKindInline  = 0
	segKindFileRef = 1
)

// ErrCorrupt reports a malformed live-snapshot encoding.
var ErrCorrupt = errors.New("live: corrupt snapshot encoding")

// AppendBinary appends the index's snapshot encoding (a v4 manifest) to
// buf. With DataDir set it first writes a segment file for every segment
// that lacks one, so the manifest references files instead of embedding
// megabytes of segment bytes; the files it references are protected from
// deletion until CollectGarbage. Concurrent Saves serialize on saveMu.
func (x *Index) AppendBinary(buf []byte) []byte {
	x.saveMu.Lock()
	defer x.saveMu.Unlock()
	if x.opts.DataDir != "" {
		// A seal/merge racing past this point publishes a segment this save
		// won't see; a segment it does see but that gained no file (spill
		// error) is inlined below. Either way the encoding is complete.
		x.spillAll()
	}

	// seq and the snapshot must agree (seq covers every mutation the
	// snapshot shows); taking the writer mutex for the two loads is the only
	// place the save path touches it. The snapshot is pinned so its mapped
	// segments cannot retire while being encoded.
	x.mu.Lock()
	sn := x.snap.Load()
	sn.refs.Add(1) // under mu no publish can race: plain acquire
	seq := x.seq
	x.mu.Unlock()
	defer x.releaseSnap(sn)

	start := len(buf)
	buf = append(buf, liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, liveVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint32(buf, x.opts.Sketch.Tag())
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.segs)))
	for _, seg := range sn.segs {
		if fi := seg.finfo.Load(); fi != nil && x.opts.DataDir != "" {
			name := filepath.Base(fi.path)
			buf = append(buf, segKindFileRef)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
			buf = append(buf, name...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(fi.size))
			buf = binary.LittleEndian.AppendUint64(buf, fi.headerCRC)
			// From here the file is manifest-referenced: retirement must
			// defer its deletion to CollectGarbage even if the caller never
			// persists this encoding (conservative direction — files only
			// live longer).
			seg.inManifest.Store(true)
			continue
		}
		buf = append(buf, segKindInline)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.seqs)))
		for _, s := range seg.seqs {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
		buf = seg.idx.AppendBinary(buf)
		buf = appendSegMeta(buf, seg.meta)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.buf)))
	for i := range sn.buf {
		e := &sn.buf[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.rec.Key)))
		buf = append(buf, e.rec.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.rec.Size))
		for _, v := range e.rec.Sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	// Tombstones in sorted key order: map iteration is randomized, and v3
	// promises byte-deterministic encodings of equal states.
	tombKeys := make([]string, 0, len(sn.tombs))
	for k := range sn.tombs {
		tombKeys = append(tombKeys, k)
	}
	sort.Strings(tombKeys)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tombKeys)))
	for _, k := range tombKeys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, sn.tombs[k])
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf[start:], crcTable))
}

// Save writes the index's snapshot encoding to w. See AppendBinary for the
// consistency guarantees.
func (x *Index) Save(w io.Writer) error {
	buf := x.AppendBinary(nil)
	n, err := w.Write(buf)
	if err != nil {
		return err
	}
	if n != len(buf) {
		return io.ErrShortWrite
	}
	return nil
}

// Load reconstructs a live index from a snapshot previously written with
// Save, using opts for the runtime knobs (thresholds, compactor). Non-zero
// opts.NumHash/opts.RMax must match the saved shape and a set opts.Sketch the
// saved backend: a mismatched hash family or sketch width would silently
// return garbage. An unset opts.Sketch adopts the snapshot's (Minwise64 for
// v1–v3), like a zero NumHash. The background compactor starts unless
// opts.ManualCompaction is set.
func Load(r io.Reader, opts Options) (*Index, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Fixed header: magic(4) + version(4) + numHash(4) + rMax(4) +
	// sketch(4, v4+) + seq(8).
	if len(buf) < 24 || [4]byte(buf[:4]) != liveMagic {
		return nil, ErrCorrupt
	}
	version := binary.LittleEndian.Uint32(buf[4:])
	if version < liveVersionV1 || version > liveVersion {
		return nil, fmt.Errorf("live: snapshot version %d, want %d..%d: %w",
			version, liveVersionV1, liveVersion, ErrCorrupt)
	}
	if version >= liveVersionV3 {
		// The whole v3+ encoding is covered by a trailing checksum, so any
		// truncation or corruption is rejected before structural parsing.
		if len(buf) < 32 ||
			crc64.Checksum(buf[:len(buf)-8], crcTable) != binary.LittleEndian.Uint64(buf[len(buf)-8:]) {
			return nil, fmt.Errorf("live: snapshot checksum mismatch: %w", ErrCorrupt)
		}
		buf = buf[:len(buf)-8]
	}
	numHash := int(binary.LittleEndian.Uint32(buf[8:]))
	rMax := int(binary.LittleEndian.Uint32(buf[12:]))
	sketch := core.Minwise64
	if version >= 4 {
		if len(buf) < 28 {
			return nil, ErrCorrupt
		}
		sb, ok := core.SketchBackendFromTag(binary.LittleEndian.Uint32(buf[16:]))
		if !ok {
			return nil, fmt.Errorf("live: snapshot carries unknown sketch backend tag %d: %w",
				binary.LittleEndian.Uint32(buf[16:]), ErrCorrupt)
		}
		sketch = sb
		buf = buf[4:]
	}
	seq := binary.LittleEndian.Uint64(buf[16:])
	buf = buf[24:]
	// Save never emits a degenerate shape (Build validates it), and zeros
	// must not fall through to withDefaults below: the raw rMax strides
	// loops (addBufLeads), where 0 would never advance.
	if numHash < 1 || rMax < 1 || rMax > numHash {
		return nil, fmt.Errorf("live: snapshot header shape (%d, %d): %w", numHash, rMax, ErrCorrupt)
	}
	if opts.NumHash != 0 && opts.NumHash != numHash {
		return nil, fmt.Errorf("live: snapshot NumHash %d != configured %d", numHash, opts.NumHash)
	}
	if opts.RMax != 0 && opts.RMax != rMax {
		return nil, fmt.Errorf("live: snapshot RMax %d != configured %d", rMax, opts.RMax)
	}
	if opts.Sketch != core.SketchUnset && opts.Sketch != sketch {
		return nil, fmt.Errorf("live: snapshot sketch backend %s != configured %s", sketch, opts.Sketch)
	}
	opts.NumHash, opts.RMax, opts.Sketch = numHash, rMax, sketch
	opts = opts.withDefaults()
	if err := opts.Options.Validate(); err != nil {
		return nil, err
	}
	x, err := newIndex(opts, 0)
	if err != nil {
		return nil, err
	}

	sn := &snapshot{}
	referenced := make(map[string]bool)
	nsegs, buf, err := readCount(buf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nsegs; i++ {
		kind := byte(segKindInline)
		if version >= 3 {
			if len(buf) < 1 {
				return nil, ErrCorrupt
			}
			kind, buf = buf[0], buf[1:]
		}
		switch kind {
		case segKindInline:
			var n int
			n, buf, err = readCount(buf)
			if err != nil {
				return nil, err
			}
			if len(buf) < 8*n {
				return nil, ErrCorrupt
			}
			seqs := make([]uint64, n)
			for j := range seqs {
				seqs[j] = binary.LittleEndian.Uint64(buf)
				buf = buf[8:]
				if j > 0 && seqs[j] <= seqs[j-1] {
					return nil, fmt.Errorf("live: segment %d seqs not ascending: %w", i, ErrCorrupt)
				}
			}
			idx, rest, err := core.Decode(buf)
			if err != nil {
				return nil, err
			}
			buf = rest
			if idx.Len() != n {
				return nil, fmt.Errorf("live: segment %d holds %d entries, %d seqs: %w", i, idx.Len(), n, ErrCorrupt)
			}
			if o := idx.Options(); o.NumHash != numHash || o.RMax != rMax {
				return nil, fmt.Errorf("live: segment %d shape (%d, %d) != header (%d, %d): %w",
					i, o.NumHash, o.RMax, numHash, rMax, ErrCorrupt)
			}
			if s := idx.Sketch(); s != sketch {
				return nil, fmt.Errorf("live: segment %d sketch backend %s != snapshot %s: %w",
					i, s, sketch, ErrCorrupt)
			}
			var meta *segMeta
			if version >= 2 {
				meta, buf, err = decodeSegMeta(buf, idx)
				if err != nil {
					return nil, fmt.Errorf("live: segment %d metadata: %w", i, err)
				}
				meta.fillLeads(idx, nil)
			} else {
				meta = buildSegMeta(idx)
			}
			seg := &segment{idx: idx, seqs: seqs, meta: meta}
			seg.resident = heapSegmentResident(idx, meta)
			sn.segs = append(sn.segs, seg)

		case segKindFileRef:
			if opts.DataDir == "" {
				return nil, fmt.Errorf("live: snapshot references segment files but Options.DataDir is empty")
			}
			if len(buf) < 4 {
				return nil, ErrCorrupt
			}
			nameLen := int(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
			if nameLen < 0 || nameLen > len(buf) || len(buf) < nameLen+16 {
				return nil, ErrCorrupt
			}
			name := string(buf[:nameLen])
			fileSize := int64(binary.LittleEndian.Uint64(buf[nameLen:]))
			headerCRC := binary.LittleEndian.Uint64(buf[nameLen+8:])
			buf = buf[nameLen+16:]
			if !validSegFileName(name) {
				return nil, fmt.Errorf("live: segment %d references invalid file name %q: %w", i, name, ErrCorrupt)
			}
			fi := &segFileInfo{path: filepath.Join(opts.DataDir, name), size: fileSize, headerCRC: headerCRC}
			seg, err := x.openSegmentFile(fi, true)
			if err != nil {
				return nil, fmt.Errorf("live: segment %d (%s): %w", i, name, err)
			}
			// The on-disk manifest this snapshot came from references the
			// file, so retirement must route through CollectGarbage.
			seg.inManifest.Store(true)
			referenced[name] = true
			sn.segs = append(sn.segs, seg)

		default:
			return nil, fmt.Errorf("live: segment %d has unknown kind %d: %w", i, kind, ErrCorrupt)
		}
	}
	nbuf, buf, err := readCount(buf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nbuf; i++ {
		if len(buf) < 12 {
			return nil, ErrCorrupt
		}
		eseq := binary.LittleEndian.Uint64(buf)
		kl := int(binary.LittleEndian.Uint32(buf[8:]))
		buf = buf[12:]
		if len(buf) < kl+8 {
			return nil, ErrCorrupt
		}
		key := string(buf[:kl])
		size := int(binary.LittleEndian.Uint64(buf[kl:]))
		buf = buf[kl+8:]
		if len(buf) < 8*numHash {
			return nil, ErrCorrupt
		}
		sig := make(minhash.Signature, numHash)
		for j := range sig {
			sig[j] = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		}
		rec := core.Record{Key: key, Size: size, Sig: sig}
		if err := x.validateRecord(rec); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
		}
		x.bufBack = append(x.bufBack, entry{rec: rec, seq: eseq})
		if size > sn.bufMax {
			sn.bufMax = size
		}
	}
	sn.buf = x.bufBack
	x.bufBloom = x.newBufBloom()
	for i := range sn.buf {
		addBufLeads(x.bufBloom, sn.buf[i].rec.Sig, rMax, opts.Sketch.Mask())
	}
	sn.bufBloom = x.bufBloom
	ntombs, buf, err := readCount(buf)
	if err != nil {
		return nil, err
	}
	if ntombs > 0 {
		sn.tombs = make(map[string]uint64, ntombs)
		for i := 0; i < ntombs; i++ {
			if len(buf) < 4 {
				return nil, ErrCorrupt
			}
			kl := int(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
			if len(buf) < kl+8 {
				return nil, ErrCorrupt
			}
			sn.tombs[string(buf[:kl])] = binary.LittleEndian.Uint64(buf[kl:])
			buf = buf[kl+8:]
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("live: %d trailing bytes after snapshot: %w", len(buf), ErrCorrupt)
	}

	// Rebuild the writer-side view: the live entry of each key is the one
	// not shadowed by a tombstone; at most one per key exists in a
	// well-formed snapshot, so the highest seq wins defensively.
	live := 0
	note := func(key string, s uint64) {
		if sn.tombs[key] > s {
			return
		}
		if old, ok := x.keySeq[key]; !ok {
			x.keySeq[key] = s
			live++
		} else if s > old {
			x.keySeq[key] = s
		}
	}
	for _, seg := range sn.segs {
		for id := 0; id < seg.idx.Len(); id++ {
			note(seg.idx.Key(uint32(id)), seg.seqs[id])
		}
	}
	for i := range sn.buf {
		note(sn.buf[i].rec.Key, sn.buf[i].seq)
	}
	x.domains.Store(int64(live))
	x.seq = seq
	for _, k := range x.keySeq {
		if k > x.seq {
			x.seq = k
		}
	}
	for _, s := range sn.tombs {
		if s > x.seq {
			x.seq = s
		}
	}
	if opts.DataDir != "" {
		// Anything in the data directory the manifest does not reference is a
		// leftover from a crashed spill or an unpersisted save: remove it.
		x.sweepDataDir(referenced)
	}
	// Only now, so that a rejected snapshot never registers its header's grid.
	x.bands = tune.ForGrid(opts.NumHash/opts.RMax, opts.RMax)
	x.publishInitial(sn)
	if !opts.ManualCompaction {
		go x.compactor()
		if len(sn.buf) >= opts.SealThreshold {
			x.kick()
		}
	} else {
		close(x.done)
	}
	return x, nil
}

// decodeSegMeta reads one segment's planner metadata block (the v2+ inline
// block, or a segment file's) from the front of buf, for the non-empty index
// idx it describes. The three size words are derived from idx, and a block
// whose stored words disagree is corrupt: a maxBound below the truth would
// range-prune the segment from queries it answers. The Bloom filters are
// taken as stored, under the checksums that cover them: checking leads would
// read every leading column, faulting in a mapped segment's pages at boot.
func decodeSegMeta(buf []byte, idx *core.Index) (*segMeta, []byte, error) {
	if len(buf) < 24 {
		return nil, buf, ErrCorrupt
	}
	m := &segMeta{}
	m.setSizes(idx)
	if binary.LittleEndian.Uint64(buf) != uint64(m.minSize) ||
		binary.LittleEndian.Uint64(buf[8:]) != uint64(m.maxSize) ||
		binary.LittleEndian.Uint64(buf[16:]) != uint64(m.maxBound) {
		return nil, buf, fmt.Errorf("stored size words disagree with the segment's (%d, %d, %d): %w",
			m.minSize, m.maxSize, m.maxBound, ErrCorrupt)
	}
	buf = buf[24:]
	var err error
	if m.keys, buf, err = bloom.Decode(buf); err != nil {
		return nil, buf, err
	}
	if m.leads, buf, err = bloom.Decode(buf); err != nil {
		return nil, buf, err
	}
	return m, buf, nil
}

// readCount reads a u32 count, bounded by the remaining buffer so a hostile
// header cannot drive huge allocations.
func readCount(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, buf, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 0 || n > len(buf) {
		return 0, buf, ErrCorrupt
	}
	return n, buf, nil
}
