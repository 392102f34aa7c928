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
	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
	"lshensemble/internal/segfile"
)

// Binary snapshot format (all integers little-endian):
//
//	magic "LIVE" | version u32
//	numHash u32 | rMax u32 | sketch u32 (v4+) | seq u64
//	nsegs u32, per segment (v3+ leads each with a kind byte):
//	    kind 0 (inline): n u32, seqs [n]u64, core index bytes (self-framed),
//	        and from version 2 the planner metadata:
//	        minSize u64 | maxSize u64 | maxBound u64 | keys bloom | leads bloom
//	    kind 1 (segment-file reference, v3+):
//	        namelen u32 | name | fileSize u64 | headerCRC u64
//	nbuf u32, per entry: seq u64, keylen u32, key, size u64,
//	    sig as a forest row at the sketch width (v5+, lshforest.AppendRow:
//	    numHash values, then under minwise16 each band lead's high half;
//	    [numHash]u64 before)
//	ntombs u32, per tombstone: keylen u32, key, seq u64
//	crc u64 (v3+: crc64-ECMA over every preceding byte of the encoding)
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
// Minwise64. v5 writes buffered signatures at the backend's width, as a
// sealed forest stores them (half of v4's bytes per value under minwise32;
// under minwise16 a quarter, plus each band lead's high half); v1–v4 buffers
// are full-width and narrow as they load. Load accepts all five
// versions — a v1 snapshot rebuilds its metadata from the decoded segments
// (buildSegMeta is a pure function of the core index, so the rebuilt planner
// state is identical to what seal time would have produced). Save always
// writes the current version.
//
// Save serializes a point-in-time snapshot: it is safe to call while
// writers and the compactor run (they publish new snapshots; the one being
// written stays frozen). With DataDir set it first spills any segment that
// has no file yet, so the manifest it writes is self-contained. Load
// rebuilds the writer's key → seq map and the live count by replaying the
// tombstones over the entries.

var liveMagic = [4]byte{'L', 'I', 'V', 'E'}

const (
	liveVersion   = 5
	liveVersionV1 = 1 // pre-planner: no per-segment metadata block
	liveVersionV2 = 2 // inline planner metadata, no manifest
	liveVersionV3 = 3 // manifest + checksum, implicit Minwise64 backend
	liveVersionV4 = 4 // sketch-backend tag, full-width buffered signatures
)

// Segment kind bytes of the v3 encoding.
const (
	segKindInline  = 0
	segKindFileRef = 1
)

// ErrCorrupt reports a malformed live-snapshot encoding.
var ErrCorrupt = errors.New("live: corrupt snapshot encoding")

// AppendBinary appends the index's snapshot encoding (a v5 manifest) to
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

	// One snapshot gives the header's seq and the body; pinned, its mapped
	// segments cannot retire while being encoded.
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)

	start := len(buf)
	buf = append(buf, liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, liveVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint32(buf, x.opts.Sketch.Tag())
	buf = binary.LittleEndian.AppendUint64(buf, sn.seq)
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
	var sig minhash.Signature
	for i := range sn.buf {
		e := &sn.buf[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.size))
		sig = sn.sigs.widen(sig[:0], i)
		buf = lshforest.AppendRow(buf, sig, x.opts.RMax, x.opts.Sketch.WidthBytes())
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
	rd := &segfile.Reader{B: buf[8:]}
	numHash, rMax := int(rd.U32()), int(rd.U32())
	sketch := core.Minwise64
	if version >= liveVersionV4 {
		tag := rd.U32()
		sb, ok := core.SketchBackendFromTag(tag)
		if !ok {
			return nil, fmt.Errorf("live: snapshot carries unknown sketch backend tag %d: %w", tag, ErrCorrupt)
		}
		sketch = sb
	}
	seq := rd.U64()
	if rd.Short {
		return nil, ErrCorrupt
	}
	// Save never emits a degenerate shape (Build validates it), and zeros
	// must not fall through to withDefaults below: the raw rMax strides
	// loops (buffer.with), where 0 would never advance. Past domain.MaxNumHash,
	// numHash would size the caller's hasher.
	if numHash < 1 || numHash > domain.MaxNumHash || rMax < 1 || rMax > numHash {
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

	var st state
	// A refusal drops st: nothing else closes the segment files it opened.
	loaded := false
	defer func() {
		for _, seg := range st.segs {
			if !loaded && seg.back != nil {
				seg.back.Close()
			}
		}
	}()
	referenced := make(map[string]bool)
	nsegs := rd.Count(1)
	for i := 0; i < nsegs; i++ {
		kind := byte(segKindInline)
		if version >= liveVersionV3 {
			b := rd.Bytes(1)
			if rd.Short {
				return nil, ErrCorrupt
			}
			kind = b[0]
		}
		switch kind {
		case segKindInline:
			seqs := make([]uint64, rd.Count(8))
			for j := range seqs {
				seqs[j] = rd.U64()
				if j > 0 && seqs[j] <= seqs[j-1] {
					return nil, fmt.Errorf("live: segment %d seqs not ascending: %w", i, ErrCorrupt)
				}
			}
			if rd.Short {
				return nil, ErrCorrupt
			}
			idx, rest, err := core.Decode(rd.B)
			if err != nil {
				return nil, err
			}
			rd.B = rest
			if idx.Len() != len(seqs) {
				return nil, fmt.Errorf("live: segment %d holds %d entries, %d seqs: %w", i, idx.Len(), len(seqs), ErrCorrupt)
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
			if version >= liveVersionV2 {
				if meta, err = decodeSegMeta(rd, idx); err != nil {
					return nil, fmt.Errorf("live: segment %d metadata: %w", i, err)
				}
				meta.fillLeads(idx, nil)
			} else {
				meta = buildSegMeta(idx)
			}
			seg := &segment{idx: idx, seqs: seqs, meta: meta}
			seg.resident = heapSegmentResident(idx, meta)
			st.segs = append(st.segs, seg)

		case segKindFileRef:
			if opts.DataDir == "" {
				return nil, fmt.Errorf("live: snapshot references segment files but Options.DataDir is empty")
			}
			name, fileSize, headerCRC := rd.String(), int64(rd.U64()), rd.U64()
			if rd.Short {
				return nil, ErrCorrupt
			}
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
			st.segs = append(st.segs, seg)

		default:
			return nil, fmt.Errorf("live: segment %d has unknown kind %d: %w", i, kind, ErrCorrupt)
		}
	}
	// A buffered entry is at least its seq, key length, size and signature,
	// which v5 writes as a row at the sketch width and v1–v4 as numHash
	// values of 8 bytes.
	w := 8
	if version > liveVersionV4 {
		w = sketch.WidthBytes()
	}
	row := w * lshforest.RowLen(numHash, rMax, w)
	nbuf := rd.Count(20 + row)
	st.buffer = x.newBuffer()
	sig := make(minhash.Signature, numHash)
	for i := 0; i < nbuf; i++ {
		eseq, key, size := rd.U64(), rd.String(), int(rd.U64())
		b := rd.Bytes(row)
		if rd.Short {
			return nil, ErrCorrupt
		}
		lshforest.ReadRow(sig, b, rMax, w)
		// Add appends in seq order, and a seal keeps that order as the
		// segment's seqs, which Load refuses out of order.
		if i > 0 && eseq <= st.buf[i-1].seq {
			return nil, fmt.Errorf("live: buffered seqs not ascending at entry %d: %w", i, ErrCorrupt)
		}
		if err := x.validateRecord(domain.Record{Key: key, Size: size, Sig: sig}); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
		}
		st.buffer = st.with(entry{key: key, size: size, seq: eseq}, sig, rMax, opts.Sketch.LeadMask())
	}
	if ntombs := rd.Count(4 + 8); ntombs > 0 {
		st.tombs = make(map[string]uint64, ntombs)
		for i := 0; i < ntombs; i++ {
			st.tombs[rd.String()] = rd.U64()
		}
	}
	switch {
	case rd.Short:
		return nil, ErrCorrupt
	case len(rd.B) != 0:
		return nil, fmt.Errorf("live: %d trailing bytes after snapshot: %w", len(rd.B), ErrCorrupt)
	}

	// Rebuild the writer's key → seq map: the live entry of each key is the
	// one no tombstone shadows, and a key with two is corrupt (every answer
	// matching it would name it twice). A segment holding a dead entry gets
	// its shadow bit.
	twice := ""
	note := func(key string, s uint64) (alive bool) {
		if st.tombs[key] > s {
			return false
		}
		if _, ok := x.keySeq[key]; ok {
			twice = key
		}
		x.keySeq[key] = s
		return true
	}
	st.shadow = make([]bool, len(st.segs))
	for i, seg := range st.segs {
		for id := 0; id < seg.idx.Len(); id++ {
			if !note(seg.idx.Key(uint32(id)), seg.seqs[id]) {
				st.shadow[i] = true
			}
		}
	}
	for i := range st.buf {
		note(st.buf[i].key, st.buf[i].seq)
	}
	if twice != "" {
		return nil, fmt.Errorf("live: key %q has two live entries: %w", twice, ErrCorrupt)
	}
	st.domains, st.seq = len(x.keySeq), seq
	for _, s := range x.keySeq {
		st.seq = max(st.seq, s)
	}
	for _, s := range st.tombs {
		st.seq = max(st.seq, s)
	}
	if opts.DataDir != "" {
		// Anything in the data directory the manifest does not reference is a
		// leftover from a crashed spill or an unpersisted save: remove it.
		x.sweepDataDir(referenced)
	}
	// Only now, so that a rejected snapshot never registers its header's grid.
	x.start(st)
	loaded = true
	return x, nil
}

// decodeSegMeta reads one segment's planner metadata block (the v2+ inline
// block, or a segment file's) from r, for the non-empty index idx it
// describes. The three size words are derived from idx, and a block whose
// stored words disagree is corrupt: a maxBound below the truth would
// range-prune the segment from queries it answers. The Bloom filters are
// taken as stored, under the checksums that cover them: checking leads would
// read every leading column, faulting in a mapped segment's pages at boot.
func decodeSegMeta(r *segfile.Reader, idx *core.Index) (*segMeta, error) {
	m := &segMeta{}
	m.setSizes(idx)
	minSize, maxSize, maxBound := r.U64(), r.U64(), r.U64()
	if r.Short {
		return nil, ErrCorrupt
	}
	if minSize != uint64(m.minSize) || maxSize != uint64(m.maxSize) || maxBound != uint64(m.maxBound) {
		return nil, fmt.Errorf("stored size words disagree with the segment's (%d, %d, %d): %w",
			m.minSize, m.maxSize, m.maxBound, ErrCorrupt)
	}
	var err error
	if m.keys, r.B, err = bloom.Decode(r.B); err != nil {
		return nil, err
	}
	if m.leads, r.B, err = bloom.Decode(r.B); err != nil {
		return nil, err
	}
	return m, nil
}
