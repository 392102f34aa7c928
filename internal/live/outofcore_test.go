package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/minhash"
	"lshensemble/internal/segfile"
)

// trio builds three indexes over the same initial corpus: pure in-memory,
// spill-to-disk with heap reads, and spill-to-disk with mmap reads. Every
// behavioral test drives them through identical operations and demands
// identical answers — the out-of-core representation must be invisible.
func trio(t *testing.T, recs []domain.Record) (heap, spill, mapped *Index) {
	t.Helper()
	mk := func(dataDir string, mmap bool) *Index {
		opts := liveOpts()
		opts.DataDir = dataDir
		opts.Mmap = mmap
		x, err := Build(recs, opts)
		if err != nil {
			t.Fatalf("Build(dataDir=%q, mmap=%v): %v", dataDir, mmap, err)
		}
		return x
	}
	heap = mk("", false)
	spill = mk(t.TempDir(), false)
	mapped = mk(t.TempDir(), true)
	return heap, spill, mapped
}

func requireSameAnswers(t *testing.T, label string, heap, spill, mapped *Index, recs []domain.Record) {
	t.Helper()
	for i, r := range recs {
		for _, tStar := range []float64{0.5, 0.9, 1.0} {
			want := heap.Query(r.Sig, r.Size, tStar)
			for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
				got := x.Query(r.Sig, r.Size, tStar)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: query %d t=%v: %s answered %v, heap %v", label, i, tStar, name, got, want)
				}
			}
		}
		wantK := heap.QueryTopK(r.Sig, r.Size, 5)
		for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
			if got := x.QueryTopK(r.Sig, r.Size, 5); fmt.Sprint(got) != fmt.Sprint(wantK) {
				t.Fatalf("%s: topk %d: %s answered %v, heap %v", label, i, name, got, wantK)
			}
		}
	}
	batch := make([]domain.BatchQuery, 0, len(recs))
	for _, r := range recs {
		batch = append(batch, domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.8})
	}
	want := heap.QueryBatch(batch, 2)
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		if got := x.QueryBatch(batch, 2); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: batch: %s diverged from heap", label, name)
		}
	}
}

// TestOutOfCoreChurnEquivalence is the tentpole correctness claim: heap,
// spilled, and mapped indexes driven through the same adds, deletes,
// seals, and merges answer every query byte-for-byte identically.
func TestOutOfCoreChurnEquivalence(t *testing.T) {
	recs := fixture(t, 260, 11)
	heap, spill, mapped := trio(t, recs[:120])
	all := []*Index{heap, spill, mapped}
	defer func() {
		for _, x := range all {
			x.Close()
		}
	}()

	probe := append(append([]domain.Record(nil), recs[:30]...), recs[120:150]...)
	requireSameAnswers(t, "initial", heap, spill, mapped, probe[:20])

	// Churn: interleaved adds, deletes, upserts, seals, and a merge.
	for i, r := range recs[120:] {
		for _, x := range all {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 {
			victim := recs[(i*13)%150].Key
			for _, x := range all {
				x.Delete(victim)
			}
		}
		if i%35 == 34 {
			for _, x := range all {
				x.Flush()
			}
		}
	}
	for _, x := range all {
		x.Flush() // seal the tail so mmap segments serve most of the corpus
	}
	requireSameAnswers(t, "churned", heap, spill, mapped, probe)

	for _, x := range all {
		x.Compact()
	}
	requireSameAnswers(t, "compacted", heap, spill, mapped, probe)

	// The spilled indexes must actually be out-of-core: every sealed
	// segment has a file, and under mmap on Linux the probe data is served
	// from the mapping.
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		st := x.Stats()
		if len(st.SegmentDetail) == 0 {
			t.Fatalf("%s: no sealed segments after churn", name)
		}
		for i, sd := range st.SegmentDetail {
			if sd.FileBytes == 0 {
				t.Fatalf("%s: segment %d has no file (spill_errors=%d)", name, i, st.SpillErrors)
			}
			wantBacking := "heap"
			if name == "mmap" && runtime.GOOS == "linux" {
				wantBacking = "mmap"
			}
			if sd.Backing != wantBacking {
				t.Fatalf("%s: segment %d backing %q, want %q", name, i, sd.Backing, wantBacking)
			}
			if name == "mmap" && runtime.GOOS == "linux" && sd.ResidentBytes >= sd.FileBytes {
				t.Fatalf("mmap segment %d resident %d >= file %d — metadata-only residency lost",
					i, sd.ResidentBytes, sd.FileBytes)
			}
		}
		if st.SpillErrors != 0 {
			t.Fatalf("%s: %d spill errors", name, st.SpillErrors)
		}
	}
}

// TestManifestSaveLoadRoundTrip saves the spilled indexes as v3 manifests
// and reloads them (same data dir), checking answers and that the manifest
// stays small — it references segment files instead of embedding them.
func TestManifestSaveLoadRoundTrip(t *testing.T) {
	recs := fixture(t, 150, 5)
	heap, spill, mapped := trio(t, recs[:100])
	defer heap.Close()
	for _, r := range recs[100:] {
		for _, x := range []*Index{heap, spill, mapped} {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, x := range []*Index{heap, spill, mapped} {
		x.Flush()
	}

	inline := heap.AppendBinary(nil)
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		manifest := x.AppendBinary(nil)
		if len(manifest) >= len(inline)/4 {
			t.Fatalf("%s: manifest is %d bytes vs %d inline — segment files not referenced",
				name, len(manifest), len(inline))
		}
		opts := x.opts
		x.Close()
		loaded, err := Load(bytes.NewReader(manifest), opts)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		defer loaded.Close()
		if loaded.Len() != heap.Len() {
			t.Fatalf("%s: loaded Len %d, want %d", name, loaded.Len(), heap.Len())
		}
		for _, r := range recs[:40] {
			want := heap.Query(r.Sig, r.Size, 0.9)
			if got := loaded.Query(r.Sig, r.Size, 0.9); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: reloaded index answered %v, want %v", name, got, want)
			}
		}
		// Re-saving the reloaded index must be byte-deterministic.
		a := loaded.AppendBinary(nil)
		b := loaded.AppendBinary(nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two saves of the same state differ", name)
		}
	}
}

// TestManifestRejectsCorruption covers every on-disk trust boundary: a
// tampered or truncated manifest, and a tampered or truncated segment file.
func TestManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	recs := fixture(t, 80, 9)
	x, err := Build(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	x.Flush()
	manifest := x.AppendBinary(nil)
	x.Close()

	load := func(buf []byte) error {
		_, err := Load(bytes.NewReader(buf), opts)
		return err
	}
	if err := load(manifest); err != nil {
		t.Fatalf("pristine manifest rejected: %v", err)
	}

	// Any flipped byte anywhere in the manifest must fail the checksum.
	for _, off := range []int{9, len(manifest) / 2, len(manifest) - 3} {
		bad := append([]byte(nil), manifest...)
		bad[off] ^= 0x40
		if err := load(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest with byte %d flipped loaded (err=%v)", off, err)
		}
	}
	// So must any truncation.
	for _, n := range []int{3, 17, 23, len(manifest) / 2, len(manifest) - 2} {
		if err := load(manifest[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest truncated to %d loaded (err=%v)", n, err)
		}
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	seg := segs[0]
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Header corruption, metadata corruption (META starts on the first page
	// boundary), lazy-section corruption (caught by lazyCRC on heap opens),
	// and truncation.
	for _, off := range []int{8, 4096 + 8, len(pristine) - 5} {
		bad := append([]byte(nil), pristine...)
		bad[off] ^= 0x01
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := load(manifest); err == nil {
			t.Fatalf("segment file with byte %d flipped loaded", off)
		}
		restore()
	}
	if err := os.Truncate(seg, int64(len(pristine)-512)); err != nil {
		t.Fatal(err)
	}
	if err := load(manifest); err == nil {
		t.Fatal("truncated segment file loaded")
	}
	restore()
	if err := load(manifest); err != nil {
		t.Fatalf("restored manifest rejected: %v", err)
	}
}

// hostileSegment builds a one-segment index over the 300-domain fixture at
// NumHash 64, RMax 4 and 4 partitions, and returns it with its segment image
// and the image offset of the segment's planner metadata block in META.
func hostileSegment(t *testing.T) (*Index, *segment, []byte, int) {
	t.Helper()
	x, err := Build(fixture(t, 300, 11), Options{
		Options:          core.Options{NumHash: 64, RMax: 4, NumPartitions: 4},
		ManualCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := x.snap.Load().segs[0]
	at := segPage + seg.idx.NumPartitions()*24
	for id := 0; id < seg.idx.Len(); id++ {
		at += 20 + len(seg.idx.Key(uint32(id)))
	}
	return x, seg, segmentImage(seg), at
}

// resealSegment recomputes a tampered segment image's META and header
// checksums, so only the structural checks stand between it and a query.
func resealSegment(img []byte) {
	metaOff := binary.LittleEndian.Uint64(img[32:])
	metaLen := binary.LittleEndian.Uint64(img[40:])
	binary.LittleEndian.PutUint64(img[112:], crc64.Checksum(img[metaOff:metaOff+metaLen], crcTable))
	binary.LittleEndian.PutUint64(img[segHeaderCRCAt:], crc64.Checksum(img[:segHeaderCRCAt], crcTable))
}

// putWords overwrites consecutive little-endian u64 words at off.
func putWords(b []byte, off int, words ...uint64) {
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[off+8*i:], w)
	}
}

// TestSegmentFileRefusesDisorderedBounds: a segment file whose partition
// bounds core.Decode would refuse — here partition 0 set to [10, 9] while it
// holds records — must not open, checksums notwithstanding.
func TestSegmentFileRefusesDisorderedBounds(t *testing.T) {
	x, seg, img, _ := hostileSegment(t)
	defer x.Close()
	if seg.idx.PartitionBounds()[0].Count == 0 {
		t.Fatal("fixture's partition 0 is empty")
	}
	putWords(img, segPage, 10, 9)
	resealSegment(img)
	if _, err := openSegmentImage(segfile.FromBytes(img), 64, 4, core.Minwise64, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment with partition 0 bounds [10, 9] opened (err=%v)", err)
	}
}

// TestStoredPlannerMetadataMustMatchIndex: the planner's size words are a
// function of the index, so a stored block that disagrees with it — one
// claiming minSize = maxSize = maxBound = 1 would range-prune the segment
// from every query with t*·|Q| > 1 — is refused, in a segment file and in a
// snapshot's inline block alike.
func TestStoredPlannerMetadataMustMatchIndex(t *testing.T) {
	x, seg, img, at := hostileSegment(t)
	defer x.Close()
	if m := seg.meta; m.minSize == 1 && m.maxSize == 1 && m.maxBound == 1 {
		t.Fatal("fixture's metadata already says 1, 1, 1")
	}
	putWords(img, at, 1, 1, 1)
	resealSegment(img)
	if _, err := openSegmentImage(segfile.FromBytes(img), 64, 4, core.Minwise64, true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment file with metadata 1, 1, 1 opened (err=%v)", err)
	}

	snap := x.AppendBinary(nil)
	// v4+ header (28 bytes), segment count, kind byte, entry count, seqs, then
	// the core index and the planner block.
	at = 28 + 4 + 1 + 4 + 8*seg.idx.Len() + len(seg.idx.AppendBinary(nil))
	putWords(snap, at, 1, 1, 1)
	binary.LittleEndian.PutUint64(snap[len(snap)-8:], crc64.Checksum(snap[:len(snap)-8], crcTable))
	if _, err := Load(bytes.NewReader(snap), Options{ManualCompaction: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("snapshot with inline metadata 1, 1, 1 loaded (err=%v)", err)
	}
}

// TestBootSweepsUnreferencedFiles checks that Load garbage-collects stray
// segment files and abandoned temp files, and leaves referenced ones alone.
func TestBootSweepsUnreferencedFiles(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	x, err := Build(fixture(t, 50, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest := x.AppendBinary(nil)
	x.Close()

	stray := filepath.Join(dir, "seg-00000000ffffffff.seg")
	tmp := filepath.Join(dir, ".segfile-123.tmp")
	other := filepath.Join(dir, "unrelated.txt")
	for _, p := range []string{stray, tmp, other} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(bytes.NewReader(manifest), opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.Close()
	for _, p := range []string{stray, tmp} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the boot sweep", filepath.Base(p))
		}
	}
	// Non-segment files are none of our business.
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("boot sweep deleted unrelated file: %v", err)
	}
	if len(loaded.Stats().SegmentDetail) == 0 {
		t.Fatal("referenced segment lost")
	}
}

// TestCollectGarbageDefersManifestedFiles checks the retirement protocol:
// a segment file referenced by an encoded manifest is NOT deleted when
// compaction retires the segment — it waits for CollectGarbage (called
// after the next manifest is durable), while never-manifested files are
// deleted immediately.
func TestCollectGarbageDefersManifestedFiles(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	x, err := Build(fixture(t, 60, 7), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	_ = x.AppendBinary(nil) // marks current segment files as manifest-referenced

	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, r := range fixture(t, 30, 8) {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Compact() // retires the manifested segment file(s)

	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	stillThere := map[string]bool{}
	for _, p := range after {
		stillThere[p] = true
	}
	for _, p := range before {
		if !stillThere[p] {
			t.Fatalf("manifested file %s deleted before CollectGarbage", filepath.Base(p))
		}
	}
	if n := x.CollectGarbage(); n != len(before) {
		t.Fatalf("CollectGarbage removed %d files, want %d", n, len(before))
	}
	final, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range final {
		for _, old := range before {
			if p == old {
				t.Fatalf("retired file %s survived CollectGarbage", filepath.Base(p))
			}
		}
	}
}

// TestBufferBloomCounters checks the unsealed-buffer Bloom filter: queries
// whose leading values are absent from the buffer skip the linear scan.
func TestBufferBloomCounters(t *testing.T) {
	opts := liveOpts()
	x, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	recs := fixture(t, 20, 2)
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	// A buffered record's own signature shares every leading value — the
	// filter must answer "maybe" and the scan must find it.
	if got := x.Query(recs[0].Sig, recs[0].Size, 1.0); !contains(got, recs[0].Key) {
		t.Fatalf("self-retrieval from buffer failed: %v", got)
	}
	st := x.Stats()
	if st.Planner.BufferScans == 0 {
		t.Fatalf("matching query did not scan the buffer: %+v", st.Planner)
	}

	// A random signature collides with no buffered leading value (2^-50ish
	// per probe): the scan must be skipped and counted as pruned.
	rng := rand.New(rand.NewSource(99))
	alien := make(minhash.Signature, opts.NumHash)
	pruned := st.Planner.BufferBloomPruned
	for i := 0; i < 5; i++ {
		for j := range alien {
			alien[j] = rng.Uint64()
		}
		x.Query(alien, 100, 0.5)
	}
	st = x.Stats()
	if st.Planner.BufferBloomPruned <= pruned {
		t.Fatalf("alien queries not Bloom-pruned: %+v", st.Planner)
	}

	// Disabled pruning keeps answers identical and never prunes.
	opts2 := liveOpts()
	opts2.DisablePruning = true
	y, err := Build(nil, opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer y.Close()
	for _, r := range recs {
		y.Add(r)
	}
	for _, r := range recs {
		a := x.Query(r.Sig, r.Size, 0.9)
		b := y.Query(r.Sig, r.Size, 0.9)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("pruned/unpruned buffers disagree: %v vs %v", a, b)
		}
	}
	if y.Stats().Planner.BufferBloomPruned != 0 {
		t.Fatal("DisablePruning still pruned the buffer")
	}
}

// TestOutOfCoreRetirementHammer races queries against seals, merges, saves
// and garbage collection over mmap-backed segments. Run with -race this is
// the proof that a mapping is only ever unmapped after the last reader of
// its snapshot is gone.
func TestOutOfCoreRetirementHammer(t *testing.T) {
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	opts.Mmap = true
	opts.SealThreshold = 16
	opts.MaxSegments = 2
	opts.ManualCompaction = false
	recs := fixture(t, 300, 21)
	x, err := Build(recs[:50], opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := recs[i%len(recs)]
				switch i % 3 {
				case 0:
					x.Query(r.Sig, r.Size, 0.8)
				case 1:
					x.QueryTopK(r.Sig, r.Size, 3)
				case 2:
					x.QueryBatch([]domain.BatchQuery{{Sig: r.Sig, Size: r.Size, Threshold: 0.6}}, 0)
				}
				i += 3
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := recs[50+i%250]
			x.Add(r)
			if i%11 == 5 {
				x.Delete(recs[i%300].Key)
			}
			if i%40 == 17 {
				// Save marks files manifest-referenced; CollectGarbage then
				// deletes the retired ones — both racing live queries.
				x.Save(io.Discard)
				x.CollectGarbage()
			}
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	x.Close()
	x.Compact()
	x.CollectGarbage()

	// The index must still answer exactly after the storm.
	st := x.Stats()
	if st.SpillErrors != 0 {
		t.Fatalf("%d spill errors during hammer", st.SpillErrors)
	}
	for _, r := range recs[:20] {
		x.Query(r.Sig, r.Size, 0.8)
	}
}

// TestMmapColdBootIsLazy checks the lazy-boot claim on Linux: loading a
// manifest with Mmap reports a resident footprint far below the file
// bytes, i.e. the signature stores were not decoded at boot.
func TestMmapColdBootIsLazy(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap laziness is Linux-only; elsewhere OpenMapped reads to heap")
	}
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	opts.Mmap = true
	x, err := Build(fixture(t, 400, 13), opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest := x.AppendBinary(nil)
	x.Close()

	loaded, err := Load(bytes.NewReader(manifest), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	var file, resident int64
	for _, sd := range loaded.Stats().SegmentDetail {
		if sd.Backing != "mmap" {
			t.Fatalf("segment backing %q, want mmap", sd.Backing)
		}
		file += sd.FileBytes
		resident += sd.ResidentBytes
	}
	if file == 0 || resident*2 >= file {
		t.Fatalf("boot resident %d of %d file bytes — not lazy", resident, file)
	}
}

// TestRefusedLoadClosesSegmentFiles: a manifest refused after its segment
// files were opened — here for buffered seqs out of order, under a
// recomputed checksum, as TestLoadRefusesBufferedSeqsOutOfOrder builds it —
// leaves none of them mapped. Each refused load used to keep one mapping.
func TestRefusedLoadClosesSegmentFiles(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts mappings in /proc/self/maps")
	}
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	opts.Mmap = true
	recs := fixture(t, 42, 16)
	x, err := Build(recs[:40], opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[40:] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := x.Stats(); len(st.Segments) != 1 || st.Buffered != 2 || st.SegmentDetail[0].Backing != "mmap" {
		t.Fatalf("fixture: %d segments, %d buffered", len(st.Segments), st.Buffered)
	}
	manifest := x.AppendBinary(nil)
	x.Close()
	// A buffered entry is seq u64 | key length u32 | key | ...: swap the two
	// entries' seqs.
	le := binary.LittleEndian
	seqAt := func(key string) int {
		i := bytes.Index(manifest, append(le.AppendUint32(nil, uint32(len(key))), key...))
		if i < 8 {
			t.Fatalf("buffered key %q not in the manifest", key)
		}
		return i - 8
	}
	a, b := seqAt(recs[40].Key), seqAt(recs[41].Key)
	sa, sb := le.Uint64(manifest[a:]), le.Uint64(manifest[b:])
	le.PutUint64(manifest[a:], sb)
	le.PutUint64(manifest[b:], sa)
	le.PutUint64(manifest[len(manifest)-8:], crc64.Checksum(manifest[:len(manifest)-8], crcTable))

	mappings := func() int {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(maps, []byte(opts.DataDir))
	}
	before := mappings()
	for i := 0; i < 5; i++ {
		y, err := Load(bytes.NewReader(manifest), opts)
		if err == nil {
			y.Close()
			t.Fatal("buffered seqs out of order accepted")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v, want ErrCorrupt", err)
		}
	}
	if after := mappings(); after != before {
		t.Fatalf("five refused loads left %d mappings of the data dir, %d before", after, before)
	}
}
