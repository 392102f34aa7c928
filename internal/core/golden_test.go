package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"lshensemble/internal/domain"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/minhash"
)

// ensembleGoldenHex is the AppendBinary output of the pre-flattening
// implementation (per-entry signature slices inside each forest, map-based
// query dedup) over the deterministic corpus built by goldenEnsemble. The
// wire format is layout-independent; the flat-store implementation must
// decode these bytes and re-encode them byte-identically.
const ensembleGoldenHex = "4c5348451000000004000000030000000800000002000000643004000000000000000200000064310800000000000000" +
	"0200000064320c0000000000000002000000643310000000000000000200000064341400000000000000020000006435" +
	"18000000000000000200000064361c000000000000000200000064372000000000000000030000000400000000000000" +
	"0c000000000000004c53484610000000040000000300000000000000477a794bc203cb067becd3532e5ce50330ab3131" +
	"3047ce09614d20c56cd363145cce9080fac4c4008ca2d537cb78d206df2356ea6a04ac012e30c82ba9d8100293c0d0ed" +
	"4e5ed505ba0d9951bf6bd30042694cadfbaaed0502153e6160a6150502818df419d36301ea183fb62f202303b9240fd8" +
	"065e7209255596e506245d0001000000477a794bc203cb06ba0e2910bacfb202fbdd693d3bdf5f01a8205ffaa19fff0c" +
	"5cce9080fac4c400f37f87eff45d2701df2356ea6a04ac01510a942658b4ca01d824741a1784f504ba0d9951bf6bd300" +
	"9805342787b89b00370c603ab6b6120002818df419d36301680c4babc69d0c015013d5a66a25c401255596e506245d00" +
	"0200000007fe6dd07cbf3a02ba0e2910bacfb202fbdd693d3bdf5f01874a2bd06b2a3b030ab9666fbe1d7a00f37f87ef" +
	"f45d2701df2356ea6a04ac01510a942658b4ca0197fb2b6482b73c00050c6a6328bd6b00a6fc0641699b7700370c603a" +
	"b6b6120002818df419d36301680c4babc69d0c0105c1650bb280e700255596e506245d00100000000000000018000000" +
	"000000004c5348461000000004000000030000000300000007fe6dd07cbf3a02ba0e2910bacfb202fbdd693d3bdf5f01" +
	"874a2bd06b2a3b030ab9666fbe1d7a00f37f87eff45d2701df2356ea6a04ac018a378aa754317a0097fb2b6482b73c00" +
	"050c6a6328bd6b00a6fc0641699b7700370c603ab6b6120002818df419d36301680c4babc69d0c0105c1650bb280e700" +
	"255596e506245d000400000007fe6dd07cbf3a023ffbf71fd3a75401fbdd693d3bdf5f01874a2bd06b2a3b030ab9666f" +
	"be1d7a00f37f87eff45d2701df2356ea6a04ac018a378aa754317a0097fb2b6482b73c00050c6a6328bd6b00a6fc0641" +
	"699b7700370c603ab6b6120002818df419d36301680c4babc69d0c0105c1650bb280e700255596e506245d0005000000" +
	"07fe6dd07cbf3a023ffbf71fd3a75401fbdd693d3bdf5f01874a2bd06b2a3b030ab9666fbe1d7a00f37f87eff45d2701" +
	"df2356ea6a04ac018a378aa754317a0097fb2b6482b73c00050c6a6328bd6b00a6fc0641699b7700370c603ab6b61200" +
	"02818df419d36301680c4babc69d0c0105c1650bb280e700255596e506245d001c000000000000002000000000000000" +
	"4c5348461000000004000000020000000600000007fe6dd07cbf3a023ffbf71fd3a754014e9976370b1c200012af8a31" +
	"b8a566000ab9666fbe1d7a00f37f87eff45d2701df2356ea6a04ac018a378aa754317a0097fb2b6482b73c00050c6a63" +
	"28bd6b003fc23a8d35be6700370c603ab6b6120002818df419d36301680c4babc69d0c0105c1650bb280e700255596e5" +
	"06245d0007000000963e9b617d099a003ffbf71fd3a754014e9976370b1c200012af8a31b8a566000ab9666fbe1d7a00" +
	"f37f87eff45d2701df2356ea6a04ac018a378aa754317a0097fb2b6482b73c00d6faa027507e37003fc23a8d35be6700" +
	"370c603ab6b6120002818df419d36301680c4babc69d0c0105c1650bb280e700255596e506245d00"

// goldenEnsemble rebuilds the deterministic index the golden bytes encode:
// eight nested domains sketched with NewHasher(16, 5), three partitions.
func goldenEnsemble(t *testing.T) *Index {
	t.Helper()
	h := minhash.NewHasher(16, 5)
	var recs []domain.Record
	for i := 0; i < 8; i++ {
		vals := make([]string, (i+1)*4)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%d", j)
		}
		recs = append(recs, domain.Record{Key: fmt.Sprintf("d%d", i), Size: len(vals), Sig: h.SketchStrings(vals)})
	}
	x, err := Build(recs, Options{NumHash: 16, RMax: 4, NumPartitions: 3, Sketch: Minwise64})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestDecodeRejectsMismatchedForest feeds an index whose embedded forest
// declares a different (numHash, rMax) than the index header. Accepting it
// would panic at query time (the tuner picks (b, r) outside the forest's
// range), so Decode must reject it as corruption.
func TestDecodeRejectsMismatchedForest(t *testing.T) {
	x := goldenEnsemble(t) // header (16, 4)
	good := x.AppendBinary(nil)

	// A shape disagreeing with the header.
	rogue := lshforest.Build(8, 2, 8, []uint32{0}, func(int) []uint64 { return make([]uint64, 8) })

	// Reuse the valid prefix up to the first partition's forest, then
	// splice in the rogue forest. Locate the first embedded forest magic.
	forestOff := bytes.Index(good, []byte("LSHF"))
	if forestOff < 0 {
		t.Fatal("no embedded forest found")
	}
	tampered := append(append([]byte{}, good[:forestOff]...), rogue.AppendBinary(nil)...)
	if _, _, err := Decode(tampered); err == nil {
		t.Fatal("decode accepted an index whose forest shape disagrees with its header")
	}
}

// TestEnsembleGoldenDecode proves an index serialized by the old storage
// layout still decodes: shape, query results, and re-encoded bytes all
// match a freshly built index.
func TestEnsembleGoldenDecode(t *testing.T) {
	golden, err := hex.DecodeString(ensembleGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	x, rest, err := Decode(golden)
	if err != nil {
		t.Fatalf("golden bytes from the old layout failed to decode: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing bytes: %d", len(rest))
	}
	live := goldenEnsemble(t)
	if x.Len() != live.Len() || x.NumPartitions() != live.NumPartitions() {
		t.Fatalf("decoded shape (%d, %d), want (%d, %d)",
			x.Len(), x.NumPartitions(), live.Len(), live.NumPartitions())
	}
	for id := 0; id < live.Len(); id++ {
		if x.Key(uint32(id)) != live.Key(uint32(id)) || x.Size(uint32(id)) != live.Size(uint32(id)) {
			t.Fatalf("id %d: (%q, %d) vs (%q, %d)", id,
				x.Key(uint32(id)), x.Size(uint32(id)), live.Key(uint32(id)), live.Size(uint32(id)))
		}
	}
	// Query equivalence across thresholds, using each indexed domain as the
	// query.
	for id := 0; id < live.Len(); id++ {
		sig := live.AppendSignature(nil, uint32(id))
		size := live.Size(uint32(id))
		for _, tStar := range []float64{0.1, 0.5, 0.9} {
			want := mustQueryIDs(t, live, domain.BatchQuery{Sig: sig, Size: size, Threshold: tStar})
			got := mustQueryIDs(t, x, domain.BatchQuery{Sig: sig, Size: size, Threshold: tStar})
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if len(want) != len(got) {
				t.Fatalf("id %d t*=%v: %v vs %v", id, tStar, got, want)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("id %d t*=%v: %v vs %v", id, tStar, got, want)
				}
			}
		}
	}
	// Byte-identical re-encoding from both the decoded and the fresh index.
	if !bytes.Equal(x.AppendBinary(nil), golden) {
		t.Fatal("re-encoded bytes differ from the golden fixture")
	}
	if !bytes.Equal(live.AppendBinary(nil), golden) {
		t.Fatal("freshly built index encodes differently from the golden fixture")
	}
}
