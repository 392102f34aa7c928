package live

import (
	"context"
	"errors"
	"testing"

	"lshensemble/internal/domain"
)

// cancelFixture builds a live index with several sealed segments plus a
// non-empty buffer, so the Context variants have real segment loops and a
// buffer scan to bail out of.
func cancelFixture(t *testing.T) (*Index, []domain.Record) {
	t.Helper()
	recs := fixture(t, 200, 9)
	x, err := Build(recs[:120], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	for _, r := range recs[120:160] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush() // second segment
	for _, r := range recs[160:] {
		if _, err := x.Add(r); err != nil { // stays buffered
			t.Fatal(err)
		}
	}
	return x, recs
}

// TestQueryContextCanceled: every Context query entry point must refuse a
// canceled context — and the result cache must never be poisoned by a
// truncated answer, so the same query re-run uncanceled returns the full
// result set.
func TestQueryContextCanceled(t *testing.T) {
	x, recs := cancelFixture(t)
	r := recs[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if got, err := x.QueryAppendContext(ctx, nil, r.Sig, r.Size, 0.5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryAppendContext = (%v, %v), want (nil, Canceled)", got, err)
	}
	if got, err := x.QueryTopKContext(ctx, r.Sig, r.Size, 5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryTopKContext = (%v, %v), want (nil, Canceled)", got, err)
	}
	queries := []domain.BatchQuery{{Sig: r.Sig, Size: r.Size, Threshold: 0.5}}
	if rows, err := x.QueryBatchContext(ctx, queries, 2); !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("QueryBatchContext = (%v, %v), want (nil, Canceled)", rows, err)
	}

	// The canceled attempts must not have cached truncated rows: the plain
	// path still answers in full and finds the query's own key.
	got := x.Query(r.Sig, r.Size, 0.5)
	if !contains(got, r.Key) {
		t.Fatalf("post-cancellation query lost self-retrieval: %v", got)
	}
}

// TestQueryContextUncanceledMatchesPlain: a live (uncanceled) context must
// not change any answer relative to the context-free entry points.
func TestQueryContextUncanceledMatchesPlain(t *testing.T) {
	x, recs := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < len(recs); i += 17 {
		r := recs[i]
		want := x.Query(r.Sig, r.Size, 0.5)
		got, err := x.QueryAppendContext(ctx, nil, r.Sig, r.Size, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !equalKeySets(got, want) {
			t.Fatalf("record %d: ctx path %d keys, plain path %d", i, len(got), len(want))
		}
		wantTop := x.QueryTopK(r.Sig, r.Size, 5)
		gotTop, err := x.QueryTopKContext(ctx, r.Sig, r.Size, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTop) != len(wantTop) {
			t.Fatalf("record %d: topk lengths differ: %d vs %d", i, len(gotTop), len(wantTop))
		}
		for j := range gotTop {
			if gotTop[j] != wantTop[j] {
				t.Fatalf("record %d topk rank %d: %+v vs %+v", i, j, gotTop[j], wantTop[j])
			}
		}
	}
	var queries []domain.BatchQuery
	for i := 0; i < len(recs); i += 11 {
		queries = append(queries, domain.BatchQuery{Sig: recs[i].Sig, Size: recs[i].Size, Threshold: 0.5})
	}
	want := x.QueryBatch(queries, 2)
	got, err := x.QueryBatchContext(ctx, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !equalKeySets(got[i], want[i]) {
			t.Fatalf("batch row %d differs under uncanceled context", i)
		}
	}
}
