package live

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/domain"
	"lshensemble/internal/xrand"
)

// topkCacheFixture is a live index with two sealed segments and a buffer, so
// a top-k miss walks the segment ladder and scores the buffer.
func topkCacheFixture(t *testing.T, opts Options) (*Index, []domain.Record) {
	t.Helper()
	recs := fixture(t, 200, 21)
	x, err := Build(recs[:100], opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	for _, r := range recs[100:140] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[140:160] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return x, recs
}

func resultCounters(x *Index) (hits, misses uint64) {
	p := x.Stats().Planner
	return p.ResultHits, p.ResultMisses
}

// TestTopKResultCacheHitEqualsMiss: for every sketch backend a repeated
// ranked query is answered from the result cache, and the hit is the miss —
// same keys, same scores, same order — which is also what an index with the
// cache off computes. (size, k) are part of the key.
func TestTopKResultCacheHitEqualsMiss(t *testing.T) {
	backends := append([]core.SketchBackend{core.Minwise64}, narrowBackends...)
	for _, sb := range backends {
		t.Run(sb.String(), func(t *testing.T) {
			x, recs := topkCacheFixture(t, sketchOpts(sb))
			off := sketchOpts(sb)
			off.ResultCacheSize = -1
			ref, _ := topkCacheFixture(t, off)
			for i := 0; i < 160; i += 9 {
				q := recs[i]
				h0, m0 := resultCounters(x)
				miss := x.QueryTopK(q.Sig, q.Size, 7)
				hit := x.QueryTopK(q.Sig, q.Size, 7)
				h1, m1 := resultCounters(x)
				if h1 != h0+1 || m1 != m0+1 {
					t.Fatalf("query %d: hits %d→%d misses %d→%d, want one miss then one hit", i, h0, h1, m0, m1)
				}
				if len(miss) == 0 || !reflect.DeepEqual(hit, miss) {
					t.Fatalf("query %d: hit %v != miss %v", i, hit, miss)
				}
				if want := ref.QueryTopK(q.Sig, q.Size, 7); !reflect.DeepEqual(miss, want) {
					t.Fatalf("query %d: cached index ranks %v, cache-less %v", i, miss, want)
				}
				// Another k or another size is another query.
				if got, want := x.QueryTopK(q.Sig, q.Size, 3), ref.QueryTopK(q.Sig, q.Size, 3); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: k=3 ranks %v, cache-less %v", i, got, want)
				}
				if got, want := x.QueryTopK(q.Sig, q.Size+5, 7), ref.QueryTopK(q.Sig, q.Size+5, 7); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d: size+5 ranks %v, cache-less %v", i, got, want)
				}
			}
		})
	}
}

// TestTopKResultCacheInvalidation: Add, Delete, seal and merge each publish
// a generation, so the ranking cached before them is never served after.
func TestTopKResultCacheInvalidation(t *testing.T) {
	opts := plannerOpts()
	opts.MaxSegments = 2
	x, recs := topkCacheFixture(t, opts)
	q := recs[0]
	// expectMiss runs the query twice around a mutation that must have
	// invalidated it: the first run recomputes, the second hits again.
	expectMiss := func(what string) []domain.TopKResult {
		t.Helper()
		h0, m0 := resultCounters(x)
		got := x.QueryTopK(q.Sig, q.Size, 5)
		if h, m := resultCounters(x); h != h0 || m != m0+1 {
			t.Fatalf("after %s: hits %d→%d misses %d→%d, want a recompute", what, h0, h, m0, m)
		}
		if again := x.QueryTopK(q.Sig, q.Size, 5); !reflect.DeepEqual(again, got) {
			t.Fatalf("after %s: hit %v != miss %v", what, again, got)
		}
		return got
	}
	first := expectMiss("build")
	if first[0].Key != q.Key {
		t.Fatalf("self-query ranks %v first, want %s", first[0], q.Key)
	}

	x.Delete(q.Key)
	for _, m := range expectMiss("Delete") {
		if m.Key == q.Key {
			t.Fatal("deleted key still ranked: stale cached ranking served")
		}
	}
	if _, err := x.Add(q); err != nil {
		t.Fatal(err)
	}
	if got := expectMiss("Add"); got[0].Key != q.Key {
		t.Fatalf("re-added key not ranked first: %v", got)
	}
	x.Flush() // seals the buffer
	afterSeal := expectMiss("seal")
	if !x.mergeIfCrowded() {
		t.Fatal("fixture has nothing to merge")
	}
	if got := expectMiss("merge"); !reflect.DeepEqual(got, afterSeal) {
		t.Fatalf("merge changed the ranking: %v, was %v", got, afterSeal)
	}
}

// TestTopKResultCacheCopiesAndCancel: the caller owns what a hit returns —
// scribbling on it does not reach the next hit — and a canceled walk leaves
// nothing behind for an uncanceled query to be served.
func TestTopKResultCacheCopiesAndCancel(t *testing.T) {
	x, recs := topkCacheFixture(t, plannerOpts())
	q := recs[1]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := x.QueryTopKContext(ctx, q.Sig, q.Size, 5); err == nil || got != nil {
		t.Fatalf("canceled top-k = (%v, %v), want (nil, Canceled)", got, err)
	}
	h0, m0 := resultCounters(x)
	want := x.QueryTopK(q.Sig, q.Size, 5)
	if h, m := resultCounters(x); h != h0 || m != m0+1 {
		t.Fatalf("query after a canceled one: hits %d→%d misses %d→%d — the canceled walk was cached", h0, h, m0, m)
	}
	if len(want) == 0 || want[0].Key != q.Key {
		t.Fatalf("ranking after a canceled walk is truncated: %v", want)
	}

	hit := x.QueryTopK(q.Sig, q.Size, 5)
	pristine := append([]domain.TopKResult(nil), hit...)
	for i := range hit {
		hit[i] = domain.TopKResult{Key: "scribbled", EstContainment: -1}
	}
	if got := x.QueryTopK(q.Sig, q.Size, 5); !reflect.DeepEqual(got, pristine) {
		t.Fatalf("mutating a returned ranking changed the next hit: %v, want %v", got, pristine)
	}
	// The slice a miss returned is the caller's too.
	for i := range want {
		want[i].Key = "scribbled"
	}
	if got := x.QueryTopK(q.Sig, q.Size, 5); !reflect.DeepEqual(got, pristine) {
		t.Fatalf("mutating the miss's ranking changed the next hit: %v, want %v", got, pristine)
	}
}

// TestTopKTraceReportsCacheHit: a ranked query fills the trace's snapshot
// shape and, on a repeat, its result-cache hit.
func TestTopKTraceReportsCacheHit(t *testing.T) {
	x, recs := topkCacheFixture(t, plannerOpts())
	q := recs[2]
	var miss, hit QueryTrace
	if _, err := x.QueryTopKContext(WithQueryTrace(context.Background(), &miss), q.Sig, q.Size, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryTopKContext(WithQueryTrace(context.Background(), &hit), q.Sig, q.Size, 5); err != nil {
		t.Fatal(err)
	}
	st := x.Stats()
	if miss.ResultCacheHit || miss.Segments != len(st.Segments) || miss.Buffered != st.Buffered {
		t.Errorf("first top-k trace %+v, want a miss over %d segments and %d buffered", miss, len(st.Segments), st.Buffered)
	}
	if !hit.ResultCacheHit {
		t.Errorf("repeat top-k trace %+v, want a result-cache hit", hit)
	}
}

// TestKeepEqualsSortTruncate: ranking candidates one by one through keeps and
// keep, then sorting the heap, leaves exactly what sorting them all by
// domain.CompareTopK and truncating to k leaves, for every k from 1 to n + 1,
// on lists where most scores tie (an estimate of 0 is the common case when
// the whole buffer is ranked) and ties break by key.
func TestKeepEqualsSortTruncate(t *testing.T) {
	rng := xrand.New(46)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		cands := make([]domain.TopKResult, n)
		for i := range cands {
			est := 0.0
			if rng.Intn(3) == 0 {
				est = float64(rng.Intn(4)) / 4
			}
			cands[i] = domain.TopKResult{Key: fmt.Sprintf("k%03d", rng.Intn(1000)*100+i), EstContainment: est}
		}
		for k := 1; k <= n+1; k++ {
			want := slices.Clone(cands)
			slices.SortFunc(want, domain.CompareTopK)
			want = want[:min(k, n)]
			got := make([]domain.TopKResult, 0, k)
			for _, r := range cands {
				if keeps(got, k, r) {
					got = keep(got, k, r)
				}
			}
			slices.SortFunc(got, domain.CompareTopK)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, n=%d, k=%d:\n got %v\nwant %v", trial, n, k, got, want)
			}
		}
	}
}
