// Benchmarks regenerating every table and figure of the paper (one
// bench per artefact; see BENCHMARKS.md for the experiment index, how
// to record results, and the per-PR performance trajectory). Run with
//
//	go test -bench=. -benchmem
package tsg_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"tsg"
	"tsg/internal/cycles"
	"tsg/internal/cycletime"
	"tsg/internal/exp"
	"tsg/internal/gen"
	"tsg/internal/hier"
	"tsg/internal/maxplus"
	"tsg/internal/mcr"
	"tsg/internal/timesim"
)

// runExp benches a full experiment from the harness (output discarded).
func runExp(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1 -----------------------------------------------------------

func BenchmarkFig1cTimingDiagram(b *testing.B) {
	g := gen.Oscillator()
	for i := 0; i < b.N; i++ {
		tr, err := timesim.Run(g, timesim.Options{Periods: 8})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Diagram().Render(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1dInitiatedDiagram(b *testing.B) {
	g := gen.Oscillator()
	origin := g.MustEvent("a+")
	for i := 0; i < b.N; i++ {
		tr, err := timesim.RunFrom(g, origin, timesim.Options{Periods: 4})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Diagram().Render(io.Discard, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Examples 3-7 ------------------------------------------------------

func BenchmarkExample3Simulation(b *testing.B) {
	g := gen.Oscillator()
	for i := 0; i < b.N; i++ {
		if _, err := timesim.Run(g, timesim.Options{Periods: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample4Initiated(b *testing.B) {
	g := gen.Oscillator()
	origin := g.MustEvent("b+")
	for i := 0; i < b.N; i++ {
		if _, err := timesim.RunFrom(g, origin, timesim.Options{Periods: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample5CycleOracle(b *testing.B) {
	g := gen.Oscillator()
	for i := 0; i < b.N; i++ {
		if _, _, err := cycles.MaxRatio(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExample7CutSets(b *testing.B) {
	g := gen.Oscillator()
	for i := 0; i < b.N; i++ {
		if _, err := g.AllMinimumCutSets(0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 4 ------------------------------------------------------------

func BenchmarkFig4Asymptotics(b *testing.B) {
	runExp(b, "FIG4")
}

// --- §VIII tables ------------------------------------------------------

func BenchmarkTableVIIICOscillator(b *testing.B) {
	g := gen.Oscillator()
	for i := 0; i < b.N; i++ {
		if _, err := cycletime.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableVIIIDMullerRing measures the full §VIII.D flow: gate
// level -> extraction -> cycle-time analysis.
func BenchmarkTableVIIIDMullerRing(b *testing.B) {
	c, err := gen.MullerRingCircuit(gen.RingOptions{Stages: 5, InitialHigh: []int{5}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := tsg.AnalyzeCircuit(c, nil)
		if err != nil {
			b.Fatal(err)
		}
		if r := res.CycleTime.Normalize(); r.Num != 20 || r.Den != 3 {
			b.Fatalf("λ = %v, want 20/3", res.CycleTime)
		}
	}
}

// BenchmarkTableVIIIDAnalysisOnly isolates the analysis step on the
// extracted ring graph.
func BenchmarkTableVIIIDAnalysisOnly(b *testing.B) {
	g, err := gen.MullerRing(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycletime.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VIII.B stack performance -----------------------------------------

// BenchmarkStack66Events is the paper's performance claim: the analysis
// of a 66-event stack graph (74 ms on a 1994 DEC 5000).
func BenchmarkStack66Events(b *testing.B) {
	g, err := gen.Stack(31)
	if err != nil {
		b.Fatal(err)
	}
	if g.NumEvents() != 66 {
		b.Fatalf("stack has %d events, want 66", g.NumEvents())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycletime.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §VII complexity ----------------------------------------------------

// BenchmarkComplexitySweepM: runtime versus m at fixed b (linear law).
func BenchmarkComplexitySweepM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1000, 2000, 4000, 8000} {
		g, err := gen.RandomLive(rng, gen.RandomOptions{Events: n, Border: 4, ExtraArcs: n, MaxDelay: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", g.NumArcs()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cycletime.Analyze(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComplexitySweepB: runtime versus b at fixed n, m (quadratic law).
func BenchmarkComplexitySweepB(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, border := range []int{2, 4, 8, 16, 32} {
		g, err := gen.RandomLive(rng, gen.RandomOptions{Events: 3000, Border: border, ExtraArcs: 3000, MaxDelay: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("b=%d", border), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cycletime.Analyze(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §I baselines --------------------------------------------------------

func benchmarkAlgos(b *testing.B, g *tsg.Graph) {
	b.Run("NielsenKishinevsky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cycletime.Analyze(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Karp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcr.Karp(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Howard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcr.Howard(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Lawler", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcr.Lawler(g, 1e-9); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBaselineRing5(b *testing.B) {
	g, err := gen.MullerRing(5)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkAlgos(b, g)
	b.Run("Oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cycles.MaxRatio(g, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkBaselineRandom2000(b *testing.B) {
	benchmarkAlgos(b, random2000(b))
}

// --- extraction ----------------------------------------------------------

// BenchmarkExtractRing measures the TRASPEC-substitute extraction alone.
func BenchmarkExtractRing(b *testing.B) {
	c, err := gen.MullerRingCircuit(gen.RingOptions{Stages: 5, InitialHigh: []int{5}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tsg.ExtractGraph(c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablations (EXPERIMENTS.md, ABLATE) ----------------------------------

// BenchmarkAblationCutSet compares the border-set analysis (b
// simulations) against the minimum-cut-set analysis (k simulations,
// same b-period depth) on a stack where k ≈ b/2.
func BenchmarkAblationCutSet(b *testing.B) {
	g, err := gen.Stack(13)
	if err != nil {
		b.Fatal(err)
	}
	min, err := g.MinimumCutSet()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("border", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cycletime.Analyze(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("minimum-cut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cycletime.AnalyzeOpts(g, cycletime.Options{CutSet: min}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallel times the b ≈ n worst case. The engine
// sizes its worker pool from GOMAXPROCS, so compare serial and pooled
// scheduling with -cpu 1,4 (gains require multiple CPUs).
func BenchmarkAblationParallel(b *testing.B) {
	g, err := gen.Stack(31)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := cycletime.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 2: engine sessions (compile once, answer many) -------------------

// random2000 returns the BenchmarkBaselineRandom2000 workload: 2000
// events, b = 8, ~4000 arcs, integer delays.
func random2000(b *testing.B) *tsg.Graph {
	b.Helper()
	g, err := gen.RandomLive(rand.New(rand.NewSource(31)),
		gen.RandomOptions{Events: 2000, Border: 8, ExtraArcs: 2000, MaxDelay: 16})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkSweepRandom2000 is the PR 2 headline: a full-arc ×1.5
// sensitivity sweep over the Random2000 workload. One op is the whole
// m-candidate sweep — EngineSweep includes the session compile and the
// slack certification, so the comparison against the per-arc one-shot
// Sensitivity loop is end-to-end.
func BenchmarkSweepRandom2000(b *testing.B) {
	g := random2000(b)
	cands := make([]tsg.WhatIf, g.NumArcs())
	for i := range cands {
		cands[i] = tsg.WhatIf{Arc: i, Delay: g.Arc(i).Delay * 1.5}
	}
	b.Run("EngineSweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := tsg.NewEngine(g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.SensitivitySweep(cands); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SensitivityLoop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				if _, err := tsg.Sensitivity(g, c.Arc, c.Delay); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkWhatIfRandom2000 measures the per-query cost of single
// what-if queries rotating through the arcs: an engine session (slack
// fast path, in-place delay refresh) versus the one-shot Sensitivity
// (graph copy + recompile + full analysis every call).
func BenchmarkWhatIfRandom2000(b *testing.B) {
	g := random2000(b)
	b.Run("Engine", func(b *testing.B) {
		e, err := tsg.NewEngine(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Slacks(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arc := i % g.NumArcs()
			if _, err := e.Sensitivity(arc, g.Arc(arc).Delay*1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OneShot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			arc := i % g.NumArcs()
			if _, err := tsg.Sensitivity(g, arc, g.Arc(arc).Delay*1.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEditAnalyzeRandom2000 measures one committed single-arc
// edit plus λ re-analysis — the edit→analyze loop of the INCR
// experiment: the incremental engine patches its retained traces
// through the edit's dirty cone, the NoIncremental engine re-simulates
// all b event-initiated runs.
func BenchmarkEditAnalyzeRandom2000(b *testing.B) {
	g := random2000(b)
	run := func(b *testing.B, e *tsg.Engine) {
		if _, err := e.Analyze(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			arc := i % g.NumArcs()
			if err := e.SetDelay(arc, g.Arc(arc).Delay*1.5); err != nil {
				b.Fatal(err)
			}
			if _, err := e.CycleTime(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Incremental", func(b *testing.B) {
		e, err := tsg.NewEngine(g)
		if err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
	b.Run("FullResim", func(b *testing.B) {
		e, err := tsg.NewEngineOpts(g, tsg.AnalysisOptions{NoIncremental: true})
		if err != nil {
			b.Fatal(err)
		}
		run(b, e)
	})
}

// BenchmarkWhatIfDecreaseRandom2000 measures sweeps of uncertified
// delay decreases on a warm Random2000 session: 1, 4 and 16 critical
// arcs halved, each candidate one λ-only analysis at private delays.
// One op is one sweep.
func BenchmarkWhatIfDecreaseRandom2000(b *testing.B) {
	g := random2000(b)
	e, err := tsg.NewEngine(g)
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Analyze()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Slacks(); err != nil {
		b.Fatal(err)
	}
	// Arcs on every critical cycle: halving one of them is not
	// certified by the session's certificate.
	onAll := map[int]int{}
	for _, c := range res.Critical {
		for _, a := range c.Arcs {
			onAll[a]++
		}
	}
	var arcs []int
	for _, a := range res.Critical[0].Arcs {
		if onAll[a] == len(res.Critical) && g.Arc(a).Delay > 0 {
			arcs = append(arcs, a)
		}
	}
	for _, n := range []int{1, 4, 16} {
		cands := make([]tsg.WhatIf, n)
		for i, a := range arcs[:n] {
			cands[i] = tsg.WhatIf{Arc: a, Delay: g.Arc(a).Delay / 2}
		}
		b.Run(fmt.Sprintf("decreases=%d", n), func(b *testing.B) {
			before := e.Stats().Analyses
			for i := 0; i < b.N; i++ {
				if _, err := e.SensitivitySweep(cands); err != nil {
					b.Fatal(err)
				}
			}
			if got := e.Stats().Analyses - before; got != int64(n*b.N) {
				b.Fatalf("%d analyses for %d sweeps of %d decreases: not all uncertified", got, b.N, n)
			}
		})
	}
}

// BenchmarkBoundsRandom2000 measures the interval-delay bounds, whose
// two extreme analyses run concurrently, each at private delays over
// the session's compiled schedule.
func BenchmarkBoundsRandom2000(b *testing.B) {
	g := random2000(b)
	lo, hi := tsg.Jitter(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tsg.AnalyzeBounds(g, lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 3: statistical timing (Monte-Carlo on the compiled kernel) -------

// rebuildGraph reconstructs a graph from scratch through the public
// builder with the given delays: the naive baseline's per-sample cost
// (re-Build, re-validate, then re-Compile inside Analyze).
func rebuildGraph(b *testing.B, g *tsg.Graph, delays []float64) *tsg.Graph {
	b.Helper()
	bld := tsg.NewGraph(g.Name())
	for e := 0; e < g.NumEvents(); e++ {
		ev := g.Event(tsg.EventID(e))
		if ev.Repetitive {
			bld.Event(ev.Name)
		} else {
			bld.Event(ev.Name, tsg.NonRepetitive())
		}
	}
	for a := 0; a < g.NumArcs(); a++ {
		arc := g.Arc(a)
		var opts []tsg.ArcOption
		if arc.Marked {
			opts = append(opts, tsg.Marked())
		}
		if arc.Once {
			opts = append(opts, tsg.Once())
		}
		bld.Arc(g.Event(arc.From).Name, g.Event(arc.To).Name, delays[a], opts...)
	}
	ng, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return ng
}

// BenchmarkMCRandom2000 is the PR 3 headline: Monte-Carlo λ under ±10%
// uniform jitter on the Random2000 workload. One op is a whole
// MC_SAMPLES-sample run. CompiledKernel reuses the engine's compiled
// schedule per sample (batch kernel + upper-bound pruning);
// NaiveRebuild re-Builds the graph from scratch and re-Compiles
// (cycletime.Analyze) for every sample — the cost of Monte-Carlo
// without the statistical subsystem. The acceptance bar is >= 10x
// samples/sec between the two.
func BenchmarkMCRandom2000(b *testing.B) {
	g := random2000(b)
	model, err := tsg.JitterUniformModel(g, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	const mcSamples = 128
	b.Run("CompiledKernel", func(b *testing.B) {
		e, err := tsg.NewEngine(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.AnalyzeMC(model, tsg.MCOptions{Samples: mcSamples, Seed: 9}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(mcSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
	b.Run("NaiveRebuild", func(b *testing.B) {
		delays := make([]float64, g.NumArcs())
		for i := 0; i < b.N; i++ {
			for s := 0; s < mcSamples; s++ {
				model.SampleInto(9, uint64(s), delays)
				ng := rebuildGraph(b, g, delays)
				if _, err := cycletime.Analyze(ng); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(mcSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
}

// BenchmarkMCStack66 measures Monte-Carlo throughput on the paper's
// 66-event stack: λ-only, with criticality attribution (per sample,
// pass 2 on top of the shared batch λ path), and slack distributions,
// serial vs. the worker pool.
func BenchmarkMCStack66(b *testing.B) {
	g, err := gen.Stack(31)
	if err != nil {
		b.Fatal(err)
	}
	model, err := tsg.JitterUniformModel(g, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := tsg.NewEngine(g)
	if err != nil {
		b.Fatal(err)
	}
	const mcSamples = 256
	run := func(b *testing.B, opts tsg.MCOptions) {
		opts.Samples = mcSamples
		opts.Seed = 9
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.AnalyzeMC(model, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(mcSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	}
	b.Run("LambdaSerial", func(b *testing.B) { run(b, tsg.MCOptions{Workers: 1}) })
	b.Run("LambdaPooled", func(b *testing.B) { run(b, tsg.MCOptions{}) })
	b.Run("Criticality", func(b *testing.B) { run(b, tsg.MCOptions{Criticality: true}) })
	b.Run("Slacks", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.SlacksMC(model, tsg.MCOptions{Samples: 64, Seed: 9}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(64*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	})
}

// BenchmarkMaxPlusEigenvalue measures the (max,+) spectral route to the
// cycle time (token matrix construction + Karp eigenvalue).
func BenchmarkMaxPlusEigenvalue(b *testing.B) {
	g, err := gen.MullerRing(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := maxplus.FromGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Eigenvalue(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifySemimodularity measures the exhaustive state-space
// check on the five-stage ring (160 states).
func BenchmarkVerifySemimodularity(b *testing.B) {
	c, err := gen.MullerRingCircuit(gen.RingOptions{Stages: 5, InitialHigh: []int{5}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tsg.VerifyCircuit(c, tsg.VerifyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- PR 7: hierarchical compression + the memory-bounded kernel ----------

// BenchmarkFlatPipeGrid100k compares the two pass-1 layouts on a
// 10^5-event pipegrid: the rolling window a fresh session runs
// against the full per-period trace slabs of a session that has
// committed an edit (it retains them for incremental patching; the
// edit is reverted, so both answer the same λ). Each op is a new
// session plus its first λ-only answer, the way the SCALE experiment
// runs the flat reference at this size.
func BenchmarkFlatPipeGrid100k(b *testing.B) {
	g, err := gen.PipeGridSized(100_000, 16, 4, 7003)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		retain bool
	}{{"slab", true}, {"window", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := cycletime.NewEngine(g)
				if err != nil {
					b.Fatal(err)
				}
				if mode.retain {
					d := g.Arc(0).Delay
					if err := e.SetDelay(0, d+1); err != nil {
						b.Fatal(err)
					}
					if err := e.SetDelay(0, d); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := e.CycleTime(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHierPipeGrid100k is the PR 7 headline: compress the
// 10^5-event pipegrid to its boundary skeleton, analyze the compressed
// graph, and expand the λ-winners back to concrete flat cycles. One op
// is the whole pipeline (Compress + kernel + expansion), the unit the
// SCALE experiment gates against the flat reference.
func BenchmarkHierPipeGrid100k(b *testing.B) {
	g, err := gen.PipeGridSized(100_000, 16, 4, 7003)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := hier.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if r.Stats.Fallback {
			b.Fatal("unexpected flat fallback")
		}
	}
}

// BenchmarkScaleExperiment regenerates the full scalability-wall sweep
// (10^3..10^6 events, hier vs flat λ bit-equality and per-row heap
// budget gates included).
func BenchmarkScaleExperiment(b *testing.B) {
	runExp(b, "SCALE")
}

// BenchmarkClusterExperiment runs the full distributed-tier proof:
// 3 backends + router, sharding and bit-identical replica convergence,
// the 2.5x aggregate-throughput gate under the per-node capacity
// model, and the kill/restart zero-failure cycle.
func BenchmarkClusterExperiment(b *testing.B) {
	runExp(b, "CLUSTER")
}
