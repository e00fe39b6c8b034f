package cycletime_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/timesim"
)

// windowFixtures are the graphs the windowed pass-1 path is
// differentially tested on: the generator families plus the huge-graph
// families at mid size.
func windowFixtures(t *testing.T) map[string]*sg.Graph {
	t.Helper()
	fx := map[string]*sg.Graph{"oscillator": gen.Oscillator()}
	ring, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	fx["ring5"] = ring
	st, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	fx["stack13"] = st
	pipe, err := gen.MullerPipeline(8, 3, 2, 3)
	if err != nil {
		t.Fatalf("MullerPipeline: %v", err)
	}
	fx["pipeline8"] = pipe
	pg, err := gen.PipeGrid(gen.PipeGridOptions{Sites: 6, Depth: 9, Width: 4, Seed: 21})
	if err != nil {
		t.Fatalf("PipeGrid: %v", err)
	}
	fx["pipegrid"] = pg
	mesh, err := gen.Mesh(gen.MeshOptions{W: 11, H: 5, Seed: 22})
	if err != nil {
		t.Fatalf("Mesh: %v", err)
	}
	fx["mesh"] = mesh
	tor, err := gen.TreeOfRings(gen.TreeRingOptions{Sites: 5, Levels: 3, Fanout: 2, Seed: 23})
	if err != nil {
		t.Fatalf("TreeOfRings: %v", err)
	}
	fx["treering"] = tor
	rng := rand.New(rand.NewSource(888))
	for seed := 0; seed < 4; seed++ {
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: 100 + 40*seed, Border: 3 + 2*seed, ExtraArcs: 180, MaxDelay: 16,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		fx[fmt.Sprintf("random%d", seed)] = g
	}
	return fx
}

// retainingEngine returns a session that has committed an edit (and
// reverted it), so its analyses run pass 1 on full trace slabs and
// retain them for incremental patching — the only slab pass 1 left.
func retainingEngine(t *testing.T, g *sg.Graph) *cycletime.Engine {
	t.Helper()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	d := g.Arc(0).Delay
	if err := e.SetDelay(0, d+1); err != nil {
		t.Fatalf("SetDelay: %v", err)
	}
	if err := e.SetDelay(0, d); err != nil {
		t.Fatalf("SetDelay: %v", err)
	}
	return e
}

// analyzeKernel runs the session's first analysis and checks which
// pass-1 kernel it took.
func analyzeKernel(t *testing.T, e *cycletime.Engine, windowed bool) *cycletime.Result {
	t.Helper()
	res, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	wantWindow, wantSlab := int64(0), int64(1)
	if windowed {
		wantWindow, wantSlab = 1, 0
	}
	if st := e.Stats(); st.WindowedPass1 != wantWindow || st.SlabPass1 != wantSlab {
		t.Fatalf("pass-1 kernels: window %d slab %d, want window %d slab %d",
			st.WindowedPass1, st.SlabPass1, wantWindow, wantSlab)
	}
	return res
}

// diffReference checks every series distance of res, bit for bit,
// against the reference kernel: δ = t/j read from ReferenceRunFrom,
// NaN where the origin's instantiation j is not reached.
func diffReference(t *testing.T, g *sg.Graph, res *cycletime.Result) {
	t.Helper()
	for i, s := range res.Series {
		tr, err := timesim.ReferenceRunFrom(g, s.Event, timesim.Options{Periods: res.Periods + 1})
		if err != nil {
			t.Fatalf("ReferenceRunFrom: %v", err)
		}
		for j := 1; j <= res.Periods; j++ {
			want := math.NaN()
			if v, ok := tr.Time(s.Event, j); ok && tr.Reached(s.Event, j) {
				want = v / float64(j)
			}
			if got := s.Distances[j-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("series[%d].Distances[%d]: got %v, reference %v", i, j-1, got, want)
			}
		}
	}
}

// TestAnalyzeWindowedMatchesSlab runs a fresh session (pass 1 on the
// rolling window) against a retaining session (pass 1 on full trace
// slabs) and requires the full Result — λ, series distances bit for
// bit, and critical cycles — to be identical, and the series to match
// the reference kernel.
func TestAnalyzeWindowedMatchesSlab(t *testing.T) {
	for name, g := range windowFixtures(t) {
		t.Run(name, func(t *testing.T) {
			fresh, err := cycletime.NewEngine(g)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			windowed := analyzeKernel(t, fresh, true)
			slab := analyzeKernel(t, retainingEngine(t, g), false)
			diffResults(t, windowed, slab)
			diffReference(t, g, windowed)
		})
	}
}

// TestAnalyzeFreshSessionWindows pins the kernel choice on the
// benchmark's stack-66 graph: a fresh session's first analysis runs
// pass 1 on the window, whatever the graph size, and only a session
// that has committed an edit runs it on slabs. The one-shot
// AnalyzeOpts path (also windowed) agrees bit for bit.
func TestAnalyzeFreshSessionWindows(t *testing.T) {
	g, err := gen.Stack(31)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := analyzeKernel(t, e, true)
	oneShot, err := cycletime.AnalyzeOpts(g, cycletime.Options{})
	if err != nil {
		t.Fatalf("AnalyzeOpts: %v", err)
	}
	diffResults(t, oneShot, res)
	diffResults(t, analyzeKernel(t, retainingEngine(t, g), false), res)
}

// TestEngineWindowedSizeHint pins that a fresh (windowed) engine
// advertises a smaller footprint than a retaining (slab) engine on a
// graph big enough for the slab to dominate, and that both answer the
// same.
func TestEngineWindowedSizeHint(t *testing.T) {
	g, err := gen.PipeGridSized(20000, 8, 4, 77)
	if err != nil {
		t.Fatalf("PipeGridSized: %v", err)
	}
	we, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	se := retainingEngine(t, g)
	if we.SizeHint() >= se.SizeHint() {
		t.Fatalf("windowed SizeHint %d not below slab SizeHint %d", we.SizeHint(), se.SizeHint())
	}
	diffResults(t, analyzeKernel(t, we, true), analyzeKernel(t, se, false))
}

// TestEnsureRowsMatchesSlab: the what-if rows, read off origin lanes,
// equal the rows a full (periods+1)-period trace slab yields
// through Time/Reached — every arc of the mode fixtures, bit for bit,
// NaN pattern included. The oscillator's non-repetitive heads and
// tails exercise the rule that an instantiation past period 0 of a
// non-repetitive event reads NaN.
func TestEnsureRowsMatchesSlab(t *testing.T) {
	for name, g := range modeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			e, err := cycletime.NewEngine(g)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			res, err := e.Analyze()
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			arcs := make([]int, g.NumArcs())
			for i := range arcs {
				arcs[i] = i
			}
			rows, err := e.WhatIfRows(arcs)
			if err != nil {
				t.Fatalf("WhatIfRows: %v", err)
			}
			sched, err := timesim.Compile(g)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			for ai, row := range rows {
				a := g.Arc(ai)
				tr, err := sched.RunFrom(a.To, timesim.Options{Periods: res.Periods + 1})
				if err != nil {
					t.Fatalf("RunFrom: %v", err)
				}
				if len(row) != res.Periods+1 {
					t.Fatalf("arc %d: row of %d entries, want %d", ai, len(row), res.Periods+1)
				}
				for j := range row {
					want := math.NaN()
					if v, ok := tr.Time(a.From, j); ok && tr.Reached(a.From, j) {
						want = v
					}
					if math.Float64bits(row[j]) != math.Float64bits(want) {
						t.Fatalf("arc %d (%s -> %s) period %d: row %v, slab %v",
							ai, g.Event(a.From).Name, g.Event(a.To).Name, j, row[j], want)
					}
				}
				tr.Release()
			}
		})
	}
}
