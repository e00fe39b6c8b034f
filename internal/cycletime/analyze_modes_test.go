package cycletime_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// modeFixtures are the generator graphs the scheduling modes are
// cross-checked on.
func modeFixtures(t testing.TB) map[string]*sg.Graph {
	t.Helper()
	fx := map[string]*sg.Graph{"oscillator": gen.Oscillator()}
	ring, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	fx["ring5"] = ring
	stack, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	fx["stack13"] = stack
	pipe, err := gen.MullerPipeline(6, 2, 1, 1)
	if err != nil {
		t.Fatalf("MullerPipeline: %v", err)
	}
	fx["pipeline6"] = pipe
	return fx
}

// diffResults fails unless the two analysis results are identical:
// cycle time, per-event series (values bitwise, NaN = NaN), criticality
// flags and critical cycles in discovery order.
func diffResults(t *testing.T, got, want *cycletime.Result) {
	t.Helper()
	if !got.CycleTime.Equal(want.CycleTime) {
		t.Fatalf("λ: got %v, want %v", got.CycleTime, want.CycleTime)
	}
	if got.Periods != want.Periods {
		t.Fatalf("periods: got %d, want %d", got.Periods, want.Periods)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("series count: got %d, want %d", len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		gs, ws := got.Series[i], want.Series[i]
		if gs.Event != ws.Event || gs.BestIndex != ws.BestIndex ||
			!gs.Best.Equal(ws.Best) || gs.OnCritical != ws.OnCritical {
			t.Fatalf("series[%d]: got %+v, want %+v", i, gs, ws)
		}
		for j := range ws.Distances {
			g, w := gs.Distances[j], ws.Distances[j]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("series[%d].Distances[%d]: got %v, want %v", i, j, g, w)
			}
		}
	}
	if len(got.Critical) != len(want.Critical) {
		t.Fatalf("critical cycles: got %d, want %d", len(got.Critical), len(want.Critical))
	}
	for i := range want.Critical {
		gc, wc := got.Critical[i], want.Critical[i]
		if gc.Length != wc.Length || gc.Period != wc.Period ||
			len(gc.Arcs) != len(wc.Arcs) {
			t.Fatalf("critical[%d]: got %+v, want %+v", i, gc, wc)
		}
		for j := range wc.Arcs {
			if gc.Arcs[j] != wc.Arcs[j] || gc.Events[j] != wc.Events[j] {
				t.Fatalf("critical[%d] arc %d differs", i, j)
			}
		}
	}
}

// TestAnalyzeSchedulingDeterminism verifies that serial and pooled
// scheduling produce identical results — the simulations are
// independent and the per-index reductions exact, so any divergence is
// a bug in the worker pool or the slab reuse. The pipegrid fixture has
// 16 λ-winners on one ring cycle, so its pass 2 skips 15 of them.
func TestAnalyzeSchedulingDeterminism(t *testing.T) {
	fx := modeFixtures(t)
	stack, err := gen.Stack(16)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	fx["stack16"] = stack
	pipe, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 16, Depth: 4, Width: 3, Seed: 5})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	fx["pipegrid16"] = pipe
	for name, g := range fx {
		t.Run(name, func(t *testing.T) {
			serial := analyzeWithProcs(t, g, 1)
			diffResults(t, analyzeWithProcs(t, g, 4), serial)
		})
	}
}

// withProcs runs f under runtime.GOMAXPROCS(procs) and then restores
// the previous setting: the engine sizes its worker pool from
// GOMAXPROCS, so procs > 1 runs the pool even on a one-CPU machine and
// procs = 1 keeps every simulation on one goroutine.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// analyzeWithProcs is Analyze under withProcs.
func analyzeWithProcs(t *testing.T, g *sg.Graph, procs int) *cycletime.Result {
	t.Helper()
	var res *cycletime.Result
	withProcs(procs, func() {
		var err error
		if res, err = cycletime.Analyze(g); err != nil {
			t.Fatalf("Analyze under GOMAXPROCS(%d): %v", procs, err)
		}
	})
	return res
}

// TestAnalyzeSchedulingDeterminismRandom repeats the cross-check on
// seeded random live graphs, including border sizes straddling the
// auto-parallel threshold.
func TestAnalyzeSchedulingDeterminismRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, border := range []int{2, 7, 8, 16} {
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: 150, Border: border, ExtraArcs: 300, MaxDelay: 16,
		})
		if err != nil {
			t.Fatalf("RandomLive(b=%d): %v", border, err)
		}
		t.Run(fmt.Sprintf("b=%d", border), func(t *testing.T) {
			serial := analyzeWithProcs(t, g, 1)
			for rep := 0; rep < 3; rep++ {
				diffResults(t, analyzeWithProcs(t, g, 4), serial)
			}
		})
	}
}
