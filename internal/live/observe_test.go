package live

import (
	"context"
	"testing"
)

// TestQueryTraceBreakdown checks the per-query trace mirrors the planner's
// decisions: segment counts partition into probed/range-pruned/bloom-pruned,
// buffer flags are set, and a repeat query reports its result-cache hit.
func TestQueryTraceBreakdown(t *testing.T) {
	recs := fixture(t, 96, 33)
	opts := liveOpts()
	opts.MaxSegments = 64 // no merging: keep several segments around
	x, err := Build(recs[:64], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Two more sealed segments plus a non-empty buffer.
	for _, r := range recs[64:80] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[80:88] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	q := recs[3]
	var tr QueryTrace
	ctx := WithQueryTrace(context.Background(), &tr)
	got, err := x.QueryAppendContext(ctx, nil, q.Sig, q.Size, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plain := x.Query(q.Sig, q.Size, 0.5)
	if len(got) != len(plain) {
		t.Fatalf("traced query returned %d keys, plain %d — tracing changed the answer", len(got), len(plain))
	}
	st := x.Stats()
	if tr.Segments != len(st.Segments) {
		t.Errorf("trace.Segments = %d, want %d", tr.Segments, len(st.Segments))
	}
	if tr.Buffered != st.Buffered {
		t.Errorf("trace.Buffered = %d, want %d", tr.Buffered, st.Buffered)
	}
	if sum := tr.SegmentsProbed + tr.SegmentsRangePruned + tr.SegmentsBloomPruned; sum != tr.Segments {
		t.Errorf("probed %d + range %d + bloom %d = %d, want every segment decided (%d)",
			tr.SegmentsProbed, tr.SegmentsRangePruned, tr.SegmentsBloomPruned, sum, tr.Segments)
	}
	if tr.ResultCacheHit {
		t.Error("first query reported a result-cache hit")
	}
	if !tr.BufferScanned && !tr.BufferBloomSkipped {
		t.Error("non-empty buffer but neither scanned nor bloom-skipped")
	}

	// Same query again: answered from the result cache, and the trace says
	// so without claiming any segment work.
	var tr2 QueryTrace
	if _, err := x.QueryAppendContext(WithQueryTrace(context.Background(), &tr2), nil, q.Sig, q.Size, 0.5); err != nil {
		t.Fatal(err)
	}
	if !tr2.ResultCacheHit {
		t.Error("repeat query did not report a result-cache hit")
	}
	if tr2.SegmentsProbed != 0 || tr2.BufferScanned {
		t.Errorf("cache-hit trace claims segment/buffer work: %+v", tr2)
	}
}
