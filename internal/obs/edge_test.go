package obs

import (
	"context"
	"testing"
)

// TestRequestTreeAllocations pins the per-request cost of tracing on
// the daemons' hot path: a root span, one annotated leaf and both Ends,
// with the root's End observed through the edge's OnEnd route. The one
// allocation is the context value StartRoot derives.
func TestRequestTreeAllocations(t *testing.T) {
	e := NewEdge("alloc", "alloc", []string{"analyze"}, "")
	leaf, key := N("alloc.leaf"), N("alloc.key")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rctx, root := e.StartRoot(ctx, 0)
		sp := LeafN(rctx, leaf)
		sp.AnnotateN(key, 7)
		sp.End()
		root.End()
	})
	if allocs > 1 {
		t.Fatalf("%v allocations per request tree, want <= 1", allocs)
	}
	if n := e.RequestDuration(0).Count(); n < 1000 {
		t.Fatalf("request-duration histogram saw %d root ends, want >= 1000", n)
	}
}
