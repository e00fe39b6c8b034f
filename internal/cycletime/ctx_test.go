package cycletime_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// ctxGraph builds a graph large enough that MC samples and sweep
// candidates take a measurable number of work units, so cancellation
// has loop iterations to land between.
func ctxGraph(t testing.TB) *sg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 150, Border: 8, ExtraArcs: 150, MaxDelay: 12})
	if err != nil {
		t.Fatalf("RandomLive: %v", err)
	}
	return g
}

// TestAnalyzeMCCtxCancelled: a context cancelled before the run starts
// must stop it without evaluating to completion, returning ctx.Err(),
// and leave the session usable — the very next uncancelled query
// answers normally with the baseline λ.
func TestAnalyzeMCCtxCancelled(t *testing.T) {
	g := ctxGraph(t)
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	base, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.AnalyzeMCCtx(ctx, pointModel(t, g), cycletime.MCOptions{Samples: 4096, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeMCCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	// The cancelled run committed nothing: baseline λ unchanged.
	after, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze after cancelled MC: %v", err)
	}
	if !after.CycleTime.Equal(base.CycleTime) {
		t.Fatalf("baseline λ moved across cancelled MC: %v -> %v", base.CycleTime, after.CycleTime)
	}
	// An uncancelled run on the same engine still works.
	res, err := e.AnalyzeMC(pointModel(t, g), cycletime.MCOptions{Samples: 32, Workers: 2})
	if err != nil {
		t.Fatalf("AnalyzeMC after cancellation: %v", err)
	}
	if res.Mean != base.CycleTime.Float() {
		t.Fatalf("post-cancel MC mean %v, want %v", res.Mean, base.CycleTime.Float())
	}
}

// TestSlacksMCCtxCancelled covers the per-sample work (the slack
// certificate) that slack runs add to the λ path.
func TestSlacksMCCtxCancelled(t *testing.T) {
	g := ctxGraph(t)
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = e.SlacksMCCtx(ctx, pointModel(t, g), cycletime.MCOptions{Samples: 4096, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SlacksMCCtx on cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestSensitivitySweepCtxCancelled: full-analysis sweep candidates
// (delay decreases, never certified) must observe cancellation; and a
// cancelled sweep must not poison the session.
func TestSensitivitySweepCtxCancelled(t *testing.T) {
	g := ctxGraph(t)
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Decrease every arc's delay: decreases below the certified band
	// need a full analysis each, the sweep path that checks ctx.
	var cands []cycletime.WhatIf
	for i := 0; i < g.NumArcs() && len(cands) < 64; i++ {
		if d := g.Arc(i).Delay; d > 0 {
			cands = append(cands, cycletime.WhatIf{Arc: i, Delay: 0})
		}
	}
	if len(cands) == 0 {
		t.Fatal("fixture has no positive-delay arcs")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.SensitivitySweepCtx(ctx, cands)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SensitivitySweepCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	// Same sweep, live context: must succeed and match Sensitivity.
	out, err := e.SensitivitySweep(cands)
	if err != nil {
		t.Fatalf("SensitivitySweep after cancellation: %v", err)
	}
	one, err := e.Sensitivity(cands[0].Arc, cands[0].Delay)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if !out[0].Equal(one) {
		t.Fatalf("sweep[0] = %v, Sensitivity = %v", out[0], one)
	}
}

// TestAnalyzeMCCtxDeterminismUnaffected: threading a live context
// through must not perturb results — AnalyzeMCCtx(Background) is
// bit-identical to AnalyzeMC.
func TestAnalyzeMCCtxDeterminismUnaffected(t *testing.T) {
	g := ctxGraph(t)
	m, err := gen.UniformJitter(g, 0.2)
	if err != nil {
		t.Fatalf("UniformJitter: %v", err)
	}
	opts := cycletime.MCOptions{Samples: 64, Seed: 42, Workers: 2}
	e1, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.AnalyzeMC(m, opts)
	if err != nil {
		t.Fatalf("AnalyzeMC: %v", err)
	}
	r2, err := e2.AnalyzeMCCtx(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("AnalyzeMCCtx: %v", err)
	}
	if r1.Mean != r2.Mean || r1.Variance != r2.Variance || r1.Min != r2.Min || r1.Max != r2.Max {
		t.Fatalf("ctx variant diverged: %+v vs %+v", r1, r2)
	}
}
