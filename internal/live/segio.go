package live

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"

	"lshensemble/internal/core"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/segfile"
)

// This file gives sealed segments their on-disk representation — the
// out-of-core format queries touch directly. A segment file persists the
// frozen core.Index exactly as it sits in memory (the contiguous signature
// store, the per-tree sorted orders and leading-value columns), so opening
// one is reassembly, not decoding: the planner metadata and per-record
// catalog are parsed eagerly from a small META section, while the probe
// arrays are typed views over the raw bytes (internal/segfile) that, under
// mmap, stay on disk until a probe faults them in.
//
// Segment file layout ("LSEG" versions 1 and 2, all integers little-endian,
// every section offset 4096-aligned so mapped views are page- and
// type-aligned):
//
//	header page:
//	    magic "LSEG" | version u32 | numHash u32 | rMax u32
//	    nParts u32 | sketch u32 | nRecords u64
//	    section table: 5 × (offset u64, length u64) for META, STORE, IDS,
//	        TREES, KEYSCOL
//	    metaCRC u64 | lazyCRC u64 | headerCRC u64   (crc64-ECMA)
//	    zero padding to 4096
//	META (eager):
//	    per partition: lower u64 | upper u64 | count u64
//	    per record, in id order: seq u64 | size u64 | keylen u32 | key
//	    planner metadata, as in the snapshot format:
//	        minSize u64 | maxSize u64 | maxBound u64 | keys bloom | leads bloom
//	STORE (lazy): per partition, its contiguous signature store,
//	    count rows (lshforest.RowLen values: numHash, and under minwise16
//	    each tree lead's high half) at the sketch backend's width
//	IDS   (lazy): per partition, its entry ids [count]u32
//	TREES (lazy): per partition per tree, the sorted slot order [count]u32
//	KEYSCOL (lazy): per partition per tree, the leading-value column,
//	    count values at the sketch backend's lead width
//
// The sketch field occupies what version 1 wrote as a zero "reserved" u32,
// so a v1 file is exactly a v2 file carrying the Minwise64 tag (0). Writers
// keep emitting version 1 for Minwise64 segments — byte-identical to the
// pre-backend format — and bump to version 2 only when a narrow backend
// makes the STORE/KEYSCOL element width differ from 8 bytes, so older
// readers reject such files by version instead of misreading them.
//
// headerCRC covers the fixed header fields and always gates an open; metaCRC
// covers META and is likewise always verified (both are eagerly read
// anyway). lazyCRC covers STORE..end of file but is verified only when the
// whole file was read onto the heap — checking it under mmap would fault
// every page and defeat lazy boot. Files are written with
// segfile.WriteAtomic (temp + fsync + rename), so a crash never leaves a
// torn file under a name the manifest can reference.

const (
	segFileVersion   = 1 // Minwise64: byte-identical to the pre-backend format
	segFileVersionV2 = 2 // narrow sketch backends: width-scaled STORE/KEYSCOL
	segPage          = 4096
	segHeaderLen     = 136 // through headerCRC
	segHeaderCRCAt   = 128
)

var segFileMagic = [4]byte{'L', 'S', 'E', 'G'}

var crcTable = crc64.MakeTable(crc64.ECMA)

// segFileInfo is a spilled segment's on-disk identity: enough for the v3
// manifest to reference the file and for a later boot to verify it is the
// exact file the manifest meant.
type segFileInfo struct {
	path      string
	size      int64
	headerCRC uint64
}

func alignPage(n int) int { return (n + segPage - 1) &^ (segPage - 1) }

// appendSegMeta appends the planner metadata block exactly as the snapshot
// format encodes it (decodeSegMeta reads it back).
func appendSegMeta(buf []byte, m *segMeta) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.minSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.maxSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.maxBound))
	buf = m.keys.AppendBinary(buf)
	buf = m.leads.AppendBinary(buf)
	return buf
}

// segmentImage builds the complete segment-file byte image for a heap-built
// segment.
func segmentImage(seg *segment) []byte {
	idx, o := seg.idx, seg.idx.Options()
	n, bMax := idx.Len(), o.NumHash/o.RMax
	w, lw := o.Sketch.WidthBytes(), o.Sketch.LeadBytes()

	// META is variable-length: assemble it first, then place the fixed-size
	// lazy sections on page boundaries after it.
	var parts []core.PartView
	idx.EachPart(func(_ int, pv core.PartView) { parts = append(parts, pv) })
	meta := make([]byte, 0, len(parts)*24+n*32)
	for _, pv := range parts {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(pv.Lower))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(pv.Upper))
		meta = binary.LittleEndian.AppendUint64(meta, uint64(pv.Forest.Len()))
	}
	for id := 0; id < n; id++ {
		key := idx.Key(uint32(id))
		meta = binary.LittleEndian.AppendUint64(meta, seg.seqs[id])
		meta = binary.LittleEndian.AppendUint64(meta, uint64(idx.Size(uint32(id))))
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(key)))
		meta = append(meta, key...)
	}
	meta = appendSegMeta(meta, seg.meta)

	metaOff := segPage
	storeOff := alignPage(metaOff + len(meta))
	storeLen := n * lshforest.RowLen(o.NumHash, o.RMax, w) * w
	idsOff := alignPage(storeOff + storeLen)
	idsLen := n * 4
	treesOff := alignPage(idsOff + idsLen)
	treesLen := n * bMax * 4
	colsOff := alignPage(treesOff + treesLen)
	colsLen := n * bMax * lw
	total := colsOff + colsLen

	img := make([]byte, total)
	copy(img[metaOff:], meta)
	so, io_, to, co := storeOff, idsOff, treesOff, colsOff
	for _, pv := range parts {
		f := pv.Forest
		f.WriteStoreLE(img[so : so+f.StoreLenBytes()])
		so += f.StoreLenBytes()
		io_ += segfile.Put(img[io_:], f.IDs())
		if f.Len() == 0 {
			continue
		}
		for t := 0; t < bMax; t++ {
			to += segfile.Put(img[to:], f.Tree(t))
			f.WriteTreeKeysLE(t, img[co:co+f.Len()*lw])
			co += f.Len() * lw
		}
	}

	version := uint32(segFileVersion)
	if o.Sketch != core.Minwise64 {
		version = segFileVersionV2
	}
	h := img[:0]
	h = append(h, segFileMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint32(h, uint32(o.NumHash))
	h = binary.LittleEndian.AppendUint32(h, uint32(o.RMax))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(parts)))
	h = binary.LittleEndian.AppendUint32(h, o.Sketch.Tag()) // 0 ("reserved") in v1
	h = binary.LittleEndian.AppendUint64(h, uint64(n))
	for _, sec := range [5][2]int{{metaOff, len(meta)}, {storeOff, storeLen}, {idsOff, idsLen}, {treesOff, treesLen}, {colsOff, colsLen}} {
		h = binary.LittleEndian.AppendUint64(h, uint64(sec[0]))
		h = binary.LittleEndian.AppendUint64(h, uint64(sec[1]))
	}
	h = binary.LittleEndian.AppendUint64(h, crc64.Checksum(img[metaOff:metaOff+len(meta)], crcTable))
	h = binary.LittleEndian.AppendUint64(h, crc64.Checksum(img[storeOff:], crcTable))
	h = binary.LittleEndian.AppendUint64(h, crc64.Checksum(img[:segHeaderCRCAt], crcTable))
	return img
}

// errSegFile wraps a segment-file open failure as corruption.
func errSegFile(format string, args ...any) error {
	return fmt.Errorf("live: segment file: "+format+": %w", append(args, ErrCorrupt)...)
}

// openSegmentImage reassembles a queryable segment from a segment-file byte
// image. numHash/rMax pin the expected signature shape. The header and META
// are parsed eagerly (keys, sizes, seqs and the planner metadata become
// private heap values); the probe arrays are typed views over the image, so
// under mmap no signature page is read here. verifyLazy additionally checks
// lazyCRC — done for heap opens (the bytes were just read anyway), skipped
// for mapped opens to keep boot lazy.
func openSegmentImage(back *segfile.Backing, numHash, rMax int, sketch core.SketchBackend, verifyLazy bool) (*segment, error) {
	img := back.Bytes()
	if len(img) < segPage || [4]byte(img[:4]) != segFileMagic {
		return nil, errSegFile("bad magic or short file")
	}
	if crc64.Checksum(img[:segHeaderCRCAt], crcTable) != binary.LittleEndian.Uint64(img[segHeaderCRCAt:]) {
		return nil, errSegFile("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(img[4:]); v != segFileVersion && v != segFileVersionV2 {
		return nil, errSegFile("version %d, want %d or %d", v, segFileVersion, segFileVersionV2)
	}
	if nh := int(binary.LittleEndian.Uint32(img[8:])); nh != numHash {
		return nil, errSegFile("NumHash %d != snapshot %d", nh, numHash)
	}
	if rm := int(binary.LittleEndian.Uint32(img[12:])); rm != rMax {
		return nil, errSegFile("RMax %d != snapshot %d", rm, rMax)
	}
	nParts := int(binary.LittleEndian.Uint32(img[16:]))
	// v1 wrote this word as zero padding — which is exactly the Minwise64 tag.
	sb, ok := core.SketchBackendFromTag(binary.LittleEndian.Uint32(img[20:]))
	if !ok {
		return nil, errSegFile("unknown sketch backend tag %d", binary.LittleEndian.Uint32(img[20:]))
	}
	if sb != sketch {
		return nil, errSegFile("sketch backend %s != snapshot %s", sb, sketch)
	}
	w, lw := sketch.WidthBytes(), sketch.LeadBytes()
	n := int(binary.LittleEndian.Uint64(img[24:]))
	if nParts < 1 || n < 1 || n > len(img) {
		return nil, errSegFile("%d partitions, %d records", nParts, n)
	}
	bMax, row := numHash/rMax, lshforest.RowLen(numHash, rMax, w)
	var off, ln [5]int
	prevEnd := segPage
	for i := 0; i < 5; i++ {
		o := binary.LittleEndian.Uint64(img[32+i*16:])
		l := binary.LittleEndian.Uint64(img[40+i*16:])
		if o%segPage != 0 || o > uint64(len(img)) || l > uint64(len(img))-o || int(o) < prevEnd {
			return nil, errSegFile("section %d out of bounds", i)
		}
		off[i], ln[i] = int(o), int(l)
		prevEnd = int(o) + int(l)
	}
	if ln[1] != n*row*w || ln[2] != n*4 || ln[3] != n*bMax*4 || ln[4] != n*bMax*lw {
		return nil, errSegFile("section lengths disagree with %d records", n)
	}
	meta := img[off[0] : off[0]+ln[0]]
	if crc64.Checksum(meta, crcTable) != binary.LittleEndian.Uint64(img[112:]) {
		return nil, errSegFile("META checksum mismatch")
	}
	if verifyLazy && crc64.Checksum(img[off[1]:], crcTable) != binary.LittleEndian.Uint64(img[120:]) {
		return nil, errSegFile("data checksum mismatch")
	}

	// META: partition bounds + counts, then the per-record catalog (decoded
	// into private heap values — Stats and tombstone sweeps must not depend
	// on the mapping), then the planner metadata, read once the index is
	// assembled.
	rd := &segfile.Reader{B: meta}
	if nParts > len(meta)/24 {
		return nil, errSegFile("META truncated")
	}
	views := make([]core.PartView, nParts)
	counts := make([]int, nParts)
	total := 0
	for i := range views {
		views[i].Lower, views[i].Upper, counts[i] = int(rd.U64()), int(rd.U64()), int(rd.U64())
		if counts[i] < 0 || counts[i] > n-total {
			return nil, errSegFile("partition %d count %d overruns %d records", i, counts[i], n)
		}
		total += counts[i]
	}
	if total != n {
		return nil, errSegFile("partitions hold %d of %d records", total, n)
	}
	keys := make([]string, n)
	sizes := make([]int, n)
	seqs := make([]uint64, n)
	for id := range keys {
		seqs[id], sizes[id], keys[id] = rd.U64(), int(rd.U64()), rd.String()
		switch {
		case rd.Short:
			return nil, errSegFile("record catalog truncated")
		case id > 0 && seqs[id] <= seqs[id-1]:
			return nil, errSegFile("seqs not ascending at record %d", id)
		}
	}
	// Lazy sections become per-partition typed views; only slicing happens
	// here, no element is read. STORE and KEYSCOL stay byte regions until
	// FromViewBytes casts them at the backend's element and lead widths.
	storeB := img[off[1] : off[1]+ln[1]]
	ids := segfile.View[uint32](img[off[2] : off[2]+ln[2]])
	treesAll := segfile.View[uint32](img[off[3] : off[3]+ln[3]])
	colsB := img[off[4] : off[4]+ln[4]]
	so, io_, to, co := 0, 0, 0, 0
	for i := 0; i < nParts; i++ {
		cnt := counts[i]
		var trees [][]uint32
		var cols [][]byte
		if cnt > 0 {
			trees = make([][]uint32, bMax)
			cols = make([][]byte, bMax)
			for t := 0; t < bMax; t++ {
				trees[t] = treesAll[to+t*cnt : to+(t+1)*cnt]
				cols[t] = colsB[co+t*cnt*lw : co+(t+1)*cnt*lw]
			}
		}
		f, err := lshforest.FromViewBytes(numHash, rMax, w,
			ids[io_:io_+cnt], storeB[so:so+cnt*row*w], trees, cols)
		if err != nil {
			return nil, errSegFile("partition %d: %v", i, err)
		}
		views[i].Forest = f
		so += cnt * row * w
		io_ += cnt
		to += cnt * bMax
		co += cnt * bMax * lw
	}
	opts := core.Options{NumHash: numHash, RMax: rMax, NumPartitions: nParts, Sketch: sketch}
	idx, err := core.FromParts(opts, keys, sizes, views)
	if err != nil {
		return nil, errSegFile("%v", err)
	}
	sm, err := decodeSegMeta(rd, idx)
	if err != nil {
		return nil, errSegFile("planner metadata: %v", err)
	}
	if len(rd.B) != 0 {
		return nil, errSegFile("%d trailing META bytes", len(rd.B))
	}
	seg := &segment{idx: idx, seqs: seqs, meta: sm, back: back}
	// Resident estimate: the decoded META copies, filters and fences plus,
	// for heap backings, the whole image; a mapped backing keeps only its
	// eagerly read pages (header + META) resident.
	metaHeap := int64(0)
	for _, k := range keys {
		metaHeap += int64(len(k))
	}
	metaHeap += int64(n)*24 + int64(sm.bloomBytes(idx)) + int64(idx.FenceBytes())
	if back.Mapped() {
		seg.resident = int64(alignPage(off[0]+ln[0])) + metaHeap
	} else {
		seg.resident = int64(len(img)) + metaHeap
		sm.fillLeads(idx, nil) // the columns are in memory; a mapped segment waits for its first probe
	}
	return seg, nil
}

// heapSegmentResident estimates the heap footprint of a segment built in
// memory (core.Build). A pure function of the segment's content, so a
// saved-and-reloaded heap segment reports the same estimate.
func heapSegmentResident(idx *core.Index, meta *segMeta) int64 {
	n := idx.Len()
	o := idx.Options()
	bMax := o.NumHash / o.RMax
	lw := int64(o.Sketch.LeadBytes())
	b := int64(idx.SignatureBytes())       // signature store
	b += int64(n) * 4                      // entry ids
	b += int64(n) * int64(bMax) * (4 + lw) // tree orders + leading columns
	for id := 0; id < n; id++ {
		b += int64(len(idx.Key(uint32(id))))
	}
	b += int64(n) * 16 // sizes + seqs
	b += int64(meta.bloomBytes(idx)) + int64(idx.FenceBytes())
	return b
}

// ---- spill-to-disk ----

// segFileName formats the canonical segment file name for an id.
func segFileName(id uint64) string { return fmt.Sprintf("seg-%016x.seg", id) }

// validSegFileName reports whether a manifest-supplied name is a plain
// canonical segment file name (no path tricks).
func validSegFileName(name string) bool {
	return len(name) == len("seg-0000000000000000.seg") &&
		strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") &&
		filepath.Base(name) == name
}

// writeSegmentFile spills a heap segment to a fresh file in DataDir and
// returns its identity. The write is atomic and durable (segfile.WriteAtomic).
func (x *Index) writeSegmentFile(seg *segment) (*segFileInfo, error) {
	img := segmentImage(seg)
	path := filepath.Join(x.opts.DataDir, segFileName(x.nextSegID.Add(1)))
	if err := segfile.WriteAtomic(path, img); err != nil {
		return nil, err
	}
	return &segFileInfo{
		path:      path,
		size:      int64(len(img)),
		headerCRC: binary.LittleEndian.Uint64(img[segHeaderCRCAt:]),
	}, nil
}

// openSegmentFile opens a spilled segment through the configured backing
// (mmap when Options.Mmap, else a heap read). When fi carries a size and
// checksum (manifest boot), the file must match them exactly.
func (x *Index) openSegmentFile(fi *segFileInfo, verify bool) (*segment, error) {
	var back *segfile.Backing
	var err error
	if x.opts.Mmap {
		back, err = segfile.OpenMapped(fi.path)
	} else {
		back, err = segfile.OpenHeap(fi.path)
	}
	if err != nil {
		return nil, err
	}
	if verify {
		if int64(back.Len()) != fi.size ||
			back.Len() < segHeaderLen ||
			binary.LittleEndian.Uint64(back.Bytes()[segHeaderCRCAt:]) != fi.headerCRC {
			back.Close()
			return nil, errSegFile("%s does not match its manifest entry", filepath.Base(fi.path))
		}
	}
	seg, err := openSegmentImage(back, x.opts.NumHash, x.opts.RMax, x.opts.Sketch, !back.Mapped())
	if err != nil {
		back.Close()
		return nil, err
	}
	seg.finfo.Store(fi)
	return seg, nil
}

// persistSegment gives a freshly built heap segment its on-disk form. Under
// mmap the mapped reopen replaces the heap segment, releasing its memory to
// the GC; without mmap the heap segment keeps serving and only gains a file
// identity. On any error the heap segment is kept — the index stays correct,
// just not out-of-core for this segment — and the failure is counted.
func (x *Index) persistSegment(seg *segment) *segment {
	if x.opts.DataDir == "" || seg == nil {
		return seg
	}
	fi, err := x.writeSegmentFile(seg)
	if err != nil {
		x.spillErrors.Add(1)
		return seg
	}
	if !x.opts.Mmap {
		seg.finfo.Store(fi)
		return seg
	}
	fseg, err := x.openSegmentFile(fi, false)
	if err != nil {
		x.spillErrors.Add(1)
		os.Remove(fi.path)
		return seg
	}
	return fseg
}

// spillAll writes a segment file for every sealed segment that does not have
// one yet, attaching the identity in place (the segment keeps serving from
// its current backing). Save runs it so the manifest it encodes can
// reference every segment by file. Serialized by saveMu.
func (x *Index) spillAll() {
	sn := x.acquireSnap()
	for _, seg := range sn.segs {
		if seg.finfo.Load() != nil {
			continue
		}
		if fi, err := x.writeSegmentFile(seg); err != nil {
			x.spillErrors.Add(1)
		} else {
			seg.finfo.Store(fi)
		}
	}
	x.releaseSnap(sn)
}

// initDataDir prepares Options.DataDir: the directory is created and
// nextSegID starts past every existing segment file so spills never collide
// with files an earlier process (or the manifest about to be loaded) left
// behind.
func (x *Index) initDataDir() error {
	dir := x.opts.DataDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var maxID uint64
	for _, e := range ents {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%016x.seg", &id); err == nil && validSegFileName(e.Name()) && id > maxID {
			maxID = id
		}
	}
	x.nextSegID.Store(maxID)
	return nil
}

// sweepDataDir removes segment files not in referenced (base names) and
// stale temp files — the boot-time orphan collection that makes every crash
// ordering safe: a file orphaned between a spill and the manifest rename is
// deleted on the next boot from that manifest.
func (x *Index) sweepDataDir(referenced map[string]bool) {
	ents, err := os.ReadDir(x.opts.DataDir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case validSegFileName(name) && !referenced[name]:
			os.Remove(filepath.Join(x.opts.DataDir, name))
		case strings.HasPrefix(name, ".segfile-") && strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(x.opts.DataDir, name))
		}
	}
}

// CollectGarbage deletes segment files that an earlier Save's manifest
// referenced but compaction has since retired. Call it only after the newest
// manifest has been made durable: until then the previous manifest on disk
// may still reference the retired files, and deleting them would break a
// crash-recovery boot. Files retired without ever being referenced by a
// manifest are deleted immediately at retirement and never reach this list.
// It returns the number of files removed.
func (x *Index) CollectGarbage() int {
	x.retMu.Lock()
	files := x.retired
	x.retired = nil
	x.retMu.Unlock()
	n := 0
	for _, p := range files {
		if os.Remove(p) == nil {
			n++
		}
	}
	if n > 0 {
		segfile.SyncDir(x.opts.DataDir)
	}
	return n
}

// ---- snapshot & segment reference counting ----
//
// Heap segments never needed lifetimes: dropped pointers were the GC's
// problem. A mapped segment is different — unmapping while a reader probes
// it is a fault — so snapshots and segments are reference counted. The
// current-snapshot pointer itself holds one reference; every reader
// acquires one more for the duration of its query; each snapshot holds one
// reference per segment it lists. The last snapshot to drop a segment
// closes its backing (munmap) and disposes of its file per the manifest
// rules above.

// acquireSnap pins the current snapshot for reading. The increment races
// with a concurrent publish retiring the snapshot, so the pointer is
// re-checked after the increment: a mismatch means the publisher may
// already be tearing the snapshot down, and the reference is backed out
// without ever dereferencing segment data.
func (x *Index) acquireSnap() *snapshot {
	for {
		sn := x.snap.Load()
		sn.refs.Add(1)
		if x.snap.Load() == sn {
			return sn
		}
		x.releaseSnap(sn)
	}
}

// releaseSnap drops one reference; the last drop retires the snapshot's
// segments. The dead flag makes teardown exactly-once even when a backed-out
// acquire briefly resurrects the count.
func (x *Index) releaseSnap(sn *snapshot) {
	if sn.refs.Add(-1) != 0 {
		return
	}
	if !sn.dead.CompareAndSwap(false, true) {
		return
	}
	for _, seg := range sn.segs {
		x.releaseSeg(seg)
	}
}

func retainSegs(segs []*segment) {
	for _, seg := range segs {
		seg.refs.Add(1)
	}
}

// releaseSeg drops one snapshot's reference to a segment; the last drop
// closes the backing (munmap under mmap) and disposes of the file: deleted
// at once when no manifest ever referenced it, else deferred to
// CollectGarbage.
func (x *Index) releaseSeg(seg *segment) {
	if seg.refs.Add(-1) != 0 {
		return
	}
	if seg.back != nil {
		seg.back.Close()
	}
	if fi := seg.finfo.Load(); fi != nil {
		if seg.inManifest.Load() {
			x.retMu.Lock()
			x.retired = append(x.retired, fi.path)
			x.retMu.Unlock()
		} else {
			os.Remove(fi.path)
		}
	}
}

// publishLocked installs st as the current snapshot, one generation past
// the one it replaces, and returns that predecessor, whose current-pointer
// reference the caller must drop with releaseSnap AFTER x.mu is released —
// retiring a snapshot can munmap and delete files, too slow for the writer
// lock. Holding x.mu keeps generations strictly monotonic; start publishes
// generation 1, with no predecessor, before the index is shared.
func (x *Index) publishLocked(st state) *snapshot {
	cur := x.snap.Load()
	next := &snapshot{state: st, gen: 1}
	if cur != nil {
		next.gen = cur.gen + 1
	}
	retainSegs(st.segs)
	next.refs.Store(1)
	x.snap.Store(next)
	return cur
}
