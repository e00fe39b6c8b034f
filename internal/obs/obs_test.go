package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestNilSpanIsNoOp(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartN(ctx, N("anything"))
	if sp != nil {
		t.Fatal("StartN without tracer should return nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartN without tracer should return the same context")
	}
	// All methods must be safe on nil.
	sp.SetGraphID(1)
	sp.SetTierN(N("full"))
	sp.AnnotateN(N("k"), 1)
	sp.End()
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context should be nil")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTracer(256)
	ctx := WithTracer(context.Background(), tr)

	rctx, root := StartN(ctx, N("serve.analyze"))
	root.SetGraphID(tr.InternGraph("abc123"))
	c1ctx, c1 := StartN(rctx, N("admission.wait"))
	c1.End()
	c2ctx, c2 := StartN(rctx, N("engine.answer"))
	c2.SetTierN(N("full"))
	_, g := StartN(c2ctx, N("engine.pass1"))
	g.SetTierN(N("slab"))
	g.AnnotateN(N("events"), 2000)
	g.AnnotateN(N("arcs"), 4000)
	g.AnnotateN(N("dropped"), 7) // third key is dropped
	g.End()
	c2.End()
	root.End()
	_ = c1ctx

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(spans))
	}
	trees := BuildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("want 1 trace, got %d", len(trees))
	}
	r := trees[0]
	if r.Name != "serve.analyze" || r.Graph != "abc123" {
		t.Fatalf("bad root: %+v", r.SpanRecord)
	}
	if len(r.Children) != 2 {
		t.Fatalf("want 2 children, got %d", len(r.Children))
	}
	if r.Children[0].Name != "admission.wait" || r.Children[1].Name != "engine.answer" {
		t.Fatalf("bad child order: %s, %s", r.Children[0].Name, r.Children[1].Name)
	}
	eng := r.Children[1]
	if eng.Tier != "full" {
		t.Fatalf("want tier=full, got %q", eng.Tier)
	}
	if len(eng.Children) != 1 || eng.Children[0].Name != "engine.pass1" {
		t.Fatalf("bad grandchild: %+v", eng.Children)
	}
	p1 := eng.Children[0]
	if p1.Tier != "slab" || p1.Attrs["events"] != 2000 || p1.Attrs["arcs"] != 4000 {
		t.Fatalf("bad pass1 annotations: %+v", p1.SpanRecord)
	}
	if _, ok := p1.Attrs["dropped"]; ok {
		t.Fatal("third annotation should have been dropped")
	}
	// Children inherit the graph attribution set on the root before
	// they started.
	if p1.Graph != "abc123" {
		t.Fatalf("grandchild should inherit graph, got %q", p1.Graph)
	}

	var sb strings.Builder
	WriteTree(&sb, spans)
	out := sb.String()
	for _, want := range []string{"serve.analyze", "  admission.wait", "  engine.answer", "    engine.pass1", "tier=slab", "arcs=4000 events=2000", "graph=abc123"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree rendering missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotGraphFiltersWholeTraces(t *testing.T) {
	tr := NewTracer(256)
	ctx := WithTracer(context.Background(), tr)
	for _, fp := range []string{"g1", "g2", "g1"} {
		rctx, root := StartN(ctx, N("serve.analyze"))
		// The engine child starts before attribution lands on it; the
		// trace-level filter must still pick it up.
		_, child := StartN(rctx, N("engine.answer"))
		child.End()
		root.SetGraphID(tr.InternGraph(fp))
		root.End()
	}
	all := tr.Snapshot()
	if len(all) != 6 {
		t.Fatalf("want 6 spans, got %d", len(all))
	}
	g1 := tr.SnapshotGraph("g1")
	if len(g1) != 4 {
		t.Fatalf("want 4 spans for g1 (2 traces x 2 spans), got %d", len(g1))
	}
	for _, r := range g1 {
		if r.Name == "serve.analyze" && r.Graph != "g1" {
			t.Fatalf("filter leaked trace for graph %q", r.Graph)
		}
	}
	if got := tr.SnapshotGraph("nope"); len(got) != 0 {
		t.Fatalf("want 0 spans for unknown graph, got %d", len(got))
	}
}

func TestRingWrapKeepsRecentSpans(t *testing.T) {
	tr := NewTracer(64)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 1000; i++ {
		_, sp := StartN(ctx, N("wrap.span"))
		sp.End()
	}
	if got := tr.Recorded(); got != 1000 {
		t.Fatalf("want 1000 recorded, got %d", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 64 {
		t.Fatalf("ring of 64 should retain 64 spans, got %d", len(spans))
	}
	// The retained spans must be the newest ones (ids 937..1000 as
	// allocated by the tracer).
	for _, r := range spans {
		if r.ID <= 1000-64 {
			t.Fatalf("ring retained stale span id %d", r.ID)
		}
	}
}

// TestConcurrentTracing drives many goroutines through Start/End and
// Snapshot at once; under -race this checks the ring protocol is
// race-detector clean, and the snapshot must only contain committed,
// untorn records.
func TestConcurrentTracing(t *testing.T) {
	tr := NewTracer(128)
	ctx := WithTracer(context.Background(), tr)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				rctx, root := StartN(ctx, N("root"))
				root.SetGraphID(tr.InternGraph("g"))
				_, c := StartN(rctx, N("child"))
				c.AnnotateN(N("i"), uint64(i))
				c.End()
				root.End()
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tr.Snapshot() {
				if r.Name != "root" && r.Name != "child" {
					t.Errorf("torn record leaked into snapshot: %+v", r)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if got := tr.Recorded(); got != 4*2000*2 {
		t.Fatalf("want %d recorded spans, got %d", 4*2000*2, got)
	}
}

func TestInternStableAndConcurrent(t *testing.T) {
	id := Intern("some.phase")
	if Intern("some.phase") != id {
		t.Fatal("Intern not stable")
	}
	if NameOf(id) != "some.phase" {
		t.Fatal("NameOf mismatch")
	}
	if NameOf(0) != "" {
		t.Fatal("id 0 must resolve to empty")
	}
	var wg sync.WaitGroup
	ids := make([]uint32, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = Intern("concurrent.phase")
		}(i)
	}
	wg.Wait()
	for _, got := range ids {
		if got != ids[0] {
			t.Fatal("concurrent Intern returned different ids")
		}
	}
}

func TestOnEndHookSeesDurations(t *testing.T) {
	tr := NewTracer(64)
	var mu sync.Mutex
	got := map[string]int{}
	tr.OnEnd(func(name uint32, seconds float64) {
		if seconds < 0 {
			t.Errorf("negative duration %g", seconds)
		}
		mu.Lock()
		got[NameOf(name)]++
		mu.Unlock()
	})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, sp := StartN(ctx, N("hooked"))
		sp.End()
	}
	if got["hooked"] != 3 {
		t.Fatalf("OnEnd saw %d ends, want 3", got["hooked"])
	}
}

// TestDetachOutlivesParent pins the hedge-loser contract: a child
// started under a detached context after its parent Ended (and the
// parent's pooled handle went to another trace) still lands under the
// original parent, in the original trace.
func TestDetachOutlivesParent(t *testing.T) {
	tr := NewTracer(256)
	rctx, root := tr.StartRoot(context.Background(), N("router.analyze"))
	root.SetGraphID(tr.InternGraph("g1"))
	dctx := Detach(rctx)
	rootID, traceID := root.id, root.trace
	root.End()
	_, other := tr.StartRoot(context.Background(), N("router.slacks")) // may reuse root's handle
	late := LeafN(dctx, N("router.hop"))
	late.End()
	other.End()

	for _, s := range tr.Snapshot() {
		if s.Name != "router.hop" {
			continue
		}
		if s.Parent != rootID || s.Trace != traceID || s.Graph != "g1" {
			t.Fatalf("late child = %+v, want parent %d trace %d graph g1", s, rootID, traceID)
		}
		return
	}
	t.Fatal("late child span not recorded")
}

func TestDetachWithoutTracer(t *testing.T) {
	ctx := context.Background()
	if Detach(ctx) != ctx {
		t.Fatal("Detach without a tracer should return the same context")
	}
}
