package cycletime

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tsg/internal/gen"
	"tsg/internal/obs"
)

// TestStatsSnapshotUnderConcurrentTraffic hammers one engine with mixed
// readers and writers while a poller takes Stats() snapshots. Every
// snapshot must be internally sane (non-negative) and every counter
// monotone non-decreasing across snapshots — the atomic counters never
// tear or run backwards. Run under -race (the CI race step covers this
// package).
func TestStatsSnapshotUnderConcurrentTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 100, Border: 5, ExtraArcs: 80, MaxDelay: 8})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	e, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	// Readers: the full query mix, so every counter family moves.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arc := (w * 7) % g.NumArcs()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0:
					if _, err := e.AnalyzeCtx(ctx); err != nil {
						t.Errorf("AnalyzeCtx: %v", err)
						return
					}
				case 1:
					if _, err := e.CycleTimeCtx(ctx); err != nil {
						t.Errorf("CycleTimeCtx: %v", err)
						return
					}
				case 2:
					d := g.Arc(arc).Delay
					if _, err := e.SensitivityCtx(ctx, arc, d*1.5+1); err != nil {
						t.Errorf("SensitivityCtx: %v", err)
						return
					}
				case 3:
					if _, err := e.SlacksCtx(ctx); err != nil {
						t.Errorf("SlacksCtx: %v", err)
						return
					}
				}
			}
		}(w)
	}
	// Writer: commits edits so incremental analyses and lazy-skip
	// accounting fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d0 := g.Arc(0).Delay
		for i := 0; i < 30; i++ {
			if err := e.SetDelay(0, d0+float64(i%5)); err != nil {
				t.Errorf("SetDelay: %v", err)
				return
			}
			if _, err := e.CycleTimeCtx(ctx); err != nil {
				t.Errorf("CycleTimeCtx after edit: %v", err)
				return
			}
		}
		close(done)
	}()

	prev := e.Stats()
	for {
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
		s := e.Stats()
		for _, pair := range [][2]int64{
			{prev.Analyses, s.Analyses},
			{prev.IncrementalAnalyses, s.IncrementalAnalyses},
			{prev.FastPathHits, s.FastPathHits},
			{prev.TableAnswers, s.TableAnswers},
			{prev.WindowedPass1, s.WindowedPass1},
			{prev.SlabPass1, s.SlabPass1},
			{prev.PatchFloods, s.PatchFloods},
			{prev.LazyPass2Skips, s.LazyPass2Skips},
			{prev.Pass2Runs, s.Pass2Runs},
		} {
			if pair[1] < pair[0] || pair[1] < 0 {
				t.Fatalf("counter ran backwards: prev=%+v now=%+v", prev, s)
			}
		}
		prev = s
	}
}

// TestEngineSpansReachKernelPhases drives a cold analysis, an edit and
// a what-if through Ctx entry points with a tracer attached, and checks
// the span tree exposes the kernel phases and answer tiers.
func TestEngineSpansReachKernelPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 60, Border: 4, ExtraArcs: 40, MaxDelay: 6})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	tr := obs.NewTracer(1024)
	ctx := obs.WithTracer(context.Background(), tr)

	e, err := NewEngineOptsCtx(ctx, g, Options{})
	if err != nil {
		t.Fatalf("NewEngineOptsCtx: %v", err)
	}
	if _, err := e.AnalyzeCtx(ctx); err != nil { // cold: pass1 + pass2
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	if _, err := e.AnalyzeCtx(ctx); err != nil { // warm: cached tier
		t.Fatalf("AnalyzeCtx warm: %v", err)
	}
	// First edit retains traces (slab pass 1); the second edit patches
	// them, which is the incremental tier with an engine.patch span.
	for i := 1; i <= 2; i++ {
		if err := e.SetDelay(0, g.Arc(0).Delay+float64(i)); err != nil {
			t.Fatalf("SetDelay: %v", err)
		}
		if _, err := e.CycleTimeCtx(ctx); err != nil {
			t.Fatalf("CycleTimeCtx: %v", err)
		}
	}
	if _, err := e.SensitivityCtx(ctx, 1, g.Arc(1).Delay*2+1); err != nil {
		t.Fatalf("SensitivityCtx: %v", err)
	}

	spans := tr.Snapshot()
	names := map[string]int{}
	tiers := map[string]int{}
	for _, r := range spans {
		names[r.Name]++
		if r.Tier != "" {
			tiers[r.Name+"/"+r.Tier]++
		}
	}
	for _, want := range []string{"engine.compile", "engine.answer", "engine.pass1", "engine.pass2", "engine.patch", "engine.slackcert"} {
		if names[want] == 0 {
			t.Fatalf("no %s span recorded; names=%v tiers=%v", want, names, tiers)
		}
	}
	if tiers["engine.answer/cached"] == 0 {
		t.Fatalf("warm Analyze did not record cached tier: %v", tiers)
	}
	if tiers["engine.answer/full"] == 0 {
		t.Fatalf("cold Analyze did not record full tier: %v", tiers)
	}
	if tiers["engine.answer/incremental"] == 0 {
		t.Fatalf("post-edit CycleTime did not record incremental tier: %v", tiers)
	}
	// The what-if after an edit rebuilds the certificate, so the
	// sensitivity answer itself must carry one of the what-if tiers.
	whatIfTiers := tiers["engine.answer/fast-path"] + tiers["engine.answer/cached-row"] + tiers["engine.answer/lambda-only"]
	if whatIfTiers == 0 {
		t.Fatalf("sensitivity recorded no what-if tier: %v", tiers)
	}
	// Parent links must stitch phases under answers.
	trees := obs.BuildTrees(spans)
	foundNested := false
	for _, root := range trees {
		if root.Name != "engine.answer" {
			continue
		}
		for _, c := range root.Children {
			switch c.Name {
			case "engine.pass1", "engine.patch", "engine.pass2", "engine.slackcert":
				foundNested = true
			}
		}
	}
	if !foundNested {
		t.Fatal("no kernel phase span nested under an engine.answer span")
	}
}

// TestPass2SpanShowsSkippedWinners: on a pipegrid every site attains λ
// and every critical cycle threads all sites, so the engine.pass2 span
// reads 16 winners and 1 simulated.
func TestPass2SpanShowsSkippedWinners(t *testing.T) {
	g, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 16, Depth: 2, Width: 2, Seed: 1})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	tr := obs.NewTracer(64)
	ctx := obs.WithTracer(context.Background(), tr)
	e, err := NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.AnalyzeCtx(ctx)
	if err != nil {
		t.Fatalf("AnalyzeCtx: %v", err)
	}
	if len(res.Critical) != 1 {
		t.Fatalf("Critical lists %d cycles, want 1", len(res.Critical))
	}
	var pass2 []obs.SpanRecord
	for _, r := range tr.Snapshot() {
		if r.Name == "engine.pass2" {
			pass2 = append(pass2, r)
		}
	}
	if len(pass2) != 1 {
		t.Fatalf("%d engine.pass2 spans, want 1", len(pass2))
	}
	if a := pass2[0].Attrs; a["winners"] != 16 || a["simulated"] != 1 {
		t.Fatalf("engine.pass2 attrs = %v, want winners=16 simulated=1", a)
	}
}
