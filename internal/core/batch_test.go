package core

import (
	"testing"

	"lshensemble/internal/domain"
)

// mustQueryIDs is the test shorthand for QueryIDsAppend on a clean index.
func mustQueryIDs(t testing.TB, x *Index, q domain.BatchQuery) []uint32 {
	t.Helper()
	ids, err := x.QueryIDsAppend(nil, q.Sig, q.Size, q.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchRows answers queries through one QueryBatchInto and copies the rows
// out of the arena.
func batchRows(t testing.TB, x *Index, queries []domain.BatchQuery) [][]uint32 {
	t.Helper()
	var res BatchResults
	if err := x.QueryBatchInto(&res, queries, 0); err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != len(queries) {
		t.Fatalf("%d rows for %d queries", res.NumRows(), len(queries))
	}
	rows := make([][]uint32, len(queries))
	for i := range rows {
		rows[i] = append([]uint32(nil), res.Row(i)...)
	}
	return rows
}

// TestQueryBatchMatchesSerial runs the same query set through QueryIDsAppend
// and QueryBatchInto; every row must equal the serial answer, in order.
func TestQueryBatchMatchesSerial(t *testing.T) {
	c := makeCorpus(t, 600, 64, 31)
	idx, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	var queries []domain.BatchQuery
	for i := 0; i < len(c.records); i += 7 {
		queries = append(queries, domain.BatchQuery{
			Sig:       c.records[i].Sig,
			Size:      c.records[i].Size,
			Threshold: []float64{0.25, 0.5, 0.75}[i%3],
		})
	}
	for i, row := range batchRows(t, idx, queries) {
		if want := mustQueryIDs(t, idx, queries[i]); !equalIDs(row, want) {
			t.Fatalf("query %d: got %d ids, want %d", i, len(row), len(want))
		}
	}
}

// TestQueryBatchIntoReuse reuses one BatchResults across batches of
// different shapes and checks rows stay correct — the arena and offset
// table must be fully reset between calls.
func TestQueryBatchIntoReuse(t *testing.T) {
	c := makeCorpus(t, 300, 64, 32)
	idx, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	var res BatchResults
	for _, n := range []int{17, 50, 3, 50, 1} {
		queries := make([]domain.BatchQuery, n)
		for i := range queries {
			r := c.records[(i*13)%len(c.records)]
			queries[i] = domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.5}
		}
		if err := idx.QueryBatchInto(&res, queries, 4); err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != n {
			t.Fatalf("n=%d: NumRows %d", n, res.NumRows())
		}
		for i, q := range queries {
			if want := mustQueryIDs(t, idx, q); !equalIDs(res.Row(i), want) {
				t.Fatalf("n=%d row %d: got %d ids, want %d", n, i, len(res.Row(i)), len(want))
			}
		}
	}
}

// TestQueryBatchEdgeCases covers empty batches, zero-size queries, and
// degenerate thresholds.
func TestQueryBatchEdgeCases(t *testing.T) {
	c := makeCorpus(t, 100, 64, 33)
	idx, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows := batchRows(t, idx, nil); len(rows) != 0 {
		t.Fatalf("empty batch returned %d rows", len(rows))
	}
	r := c.records[0]
	rows := batchRows(t, idx, []domain.BatchQuery{
		{Sig: r.Sig, Size: 0, Threshold: 0.5},     // invalid size → empty row
		{Sig: r.Sig, Size: r.Size, Threshold: -3}, // clamped to 0
		{Sig: r.Sig, Size: r.Size, Threshold: 5},  // clamped to 1
	})
	if len(rows[0]) != 0 {
		t.Fatalf("zero-size query returned %d ids", len(rows[0]))
	}
	if want := mustQueryIDs(t, idx, domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0}); !equalIDs(rows[1], want) {
		t.Fatalf("t*<0 row mismatch: %d vs %d", len(rows[1]), len(want))
	}
	if want := mustQueryIDs(t, idx, domain.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 1}); !equalIDs(rows[2], want) {
		t.Fatalf("t*>1 row mismatch: %d vs %d", len(rows[2]), len(want))
	}
}

// TestBuildParallelDeterministic builds the same corpus twice (the build
// pipeline fans partition fills and tree sorts across workers) and requires
// identical serialized bytes: parallel construction must be bit-for-bit
// deterministic.
func TestBuildParallelDeterministic(t *testing.T) {
	c := makeCorpus(t, 500, 64, 36)
	a, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(c.records, Options{NumHash: 64, RMax: 4, NumPartitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	ab, bb := a.AppendBinary(nil), b.AppendBinary(nil)
	if len(ab) != len(bb) {
		t.Fatalf("encodings differ in length: %d vs %d", len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("encodings differ at byte %d", i)
		}
	}
}
