package cycletime_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// TestEngineAnalyzeMatchesOneShot: an engine's cached analysis is
// identical to the one-shot Analyze, and repeated Analyze calls return
// the cache without re-simulating.
func TestEngineAnalyzeMatchesOneShot(t *testing.T) {
	for name, g := range modeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			want, err := cycletime.Analyze(g)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			e, err := cycletime.NewEngine(g)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			got, err := e.Analyze()
			if err != nil {
				t.Fatalf("engine Analyze: %v", err)
			}
			diffResults(t, got, want)
			analyses := e.Stats().Analyses
			// Mutating the returned copy must not corrupt the cache.
			if len(got.Critical) > 0 {
				got.Critical[0].Arcs[0] = -1
				got.Critical = got.Critical[:0]
			}
			again, err := e.Analyze()
			if err != nil {
				t.Fatalf("second engine Analyze: %v", err)
			}
			diffResults(t, again, want)
			if e.Stats().Analyses != analyses {
				t.Errorf("second Analyze re-simulated: %d -> %d analyses", analyses, e.Stats().Analyses)
			}
		})
	}
}

// sweepCandidates builds the differential candidate set for a graph:
// scaling factors around the nominal delay for every arc (exactly
// representable on the integer/half-integer fixtures, so results must
// be bit-identical), plus — for core arcs — perturbations straddling
// the certified slack boundary (slack−1, slack exactly, slack+1),
// which is where the fast path must hand over to simulation. Boundary
// deltas involve float-derived slack values whose sums are not always
// representable, so those are compared up to last-ulp rounding.
func sweepCandidates(g *sg.Graph, slacks []cycletime.ArcSlack) (strict, boundary []cycletime.WhatIf) {
	for i := 0; i < g.NumArcs(); i++ {
		d := g.Arc(i).Delay
		for _, f := range []float64{0, 0.5, 1, 1.5, 3} {
			strict = append(strict, cycletime.WhatIf{Arc: i, Delay: d * f})
		}
	}
	for _, s := range slacks {
		d := g.Arc(s.Arc).Delay
		if s.Slack > 1 {
			boundary = append(boundary, cycletime.WhatIf{Arc: s.Arc, Delay: d + s.Slack - 1})
		}
		boundary = append(boundary,
			cycletime.WhatIf{Arc: s.Arc, Delay: d + s.Slack},
			cycletime.WhatIf{Arc: s.Arc, Delay: d + s.Slack + 1})
	}
	return strict, boundary
}

// ratiosClose accepts cross-multiplied equality up to relative float
// noise — the comparison for candidates whose delta itself carries
// rounding (slack-boundary perturbations).
func ratiosClose(a, b stat.Ratio) bool {
	if a.Equal(b) {
		return true
	}
	x := a.Num * float64(b.Den)
	y := b.Num * float64(a.Den)
	return math.Abs(x-y) <= 1e-12*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// runSweepDifferential asserts SensitivitySweep, Engine.Sensitivity and
// the one-shot Sensitivity oracle agree on every candidate:
// bit-identical for representable deltas, up to last-ulp rounding for
// the slack-boundary deltas.
func runSweepDifferential(t *testing.T, g *sg.Graph, label string) {
	t.Helper()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	slacks, err := e.Slacks()
	if err != nil {
		t.Fatalf("%s: Slacks: %v", label, err)
	}
	strict, boundary := sweepCandidates(g, slacks)
	cands := append(append([]cycletime.WhatIf(nil), strict...), boundary...)
	swept, err := e.SensitivitySweep(cands)
	if err != nil {
		t.Fatalf("%s: SensitivitySweep: %v", label, err)
	}
	if len(swept) != len(cands) {
		t.Fatalf("%s: sweep returned %d results for %d candidates", label, len(swept), len(cands))
	}
	for i, cd := range cands {
		same := func(a, b stat.Ratio) bool { return a.Equal(b) }
		if i >= len(strict) {
			same = ratiosClose
		}
		oracle, err := cycletime.Sensitivity(g, cd.Arc, cd.Delay)
		if err != nil {
			t.Fatalf("%s: oracle Sensitivity(arc %d, %g): %v", label, cd.Arc, cd.Delay, err)
		}
		if !same(swept[i], oracle) {
			t.Errorf("%s: candidate %d (arc %d -> %g): sweep λ = %v, oracle λ = %v",
				label, i, cd.Arc, cd.Delay, swept[i], oracle)
		}
		single, err := e.Sensitivity(cd.Arc, cd.Delay)
		if err != nil {
			t.Fatalf("%s: engine Sensitivity(arc %d, %g): %v", label, cd.Arc, cd.Delay, err)
		}
		if !same(single, oracle) {
			t.Errorf("%s: candidate %d (arc %d -> %g): engine λ = %v, oracle λ = %v",
				label, i, cd.Arc, cd.Delay, single, oracle)
		}
	}
	// The session baseline must be untouched by the whole sweep.
	for i := 0; i < g.NumArcs(); i++ {
		if e.Delay(i) != g.Arc(i).Delay {
			t.Errorf("%s: sweep altered baseline delay of arc %d: %g != %g",
				label, i, e.Delay(i), g.Arc(i).Delay)
		}
	}
}

// TestSensitivitySweepDifferentialFixtures: sweep == per-arc oracle on
// every generator fixture, including the slack-boundary candidates.
func TestSensitivitySweepDifferentialFixtures(t *testing.T) {
	for name, g := range modeFixtures(t) {
		t.Run(name, func(t *testing.T) { runSweepDifferential(t, g, name) })
	}
}

// TestSensitivitySweepDifferentialRandom repeats the differential check
// on seeded random live graphs, spanning serial and pooled sweeps.
func TestSensitivitySweepDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(10)
		b := 1 + rng.Intn(n)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: rng.Intn(2 * n), MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		runSweepDifferential(t, g, g.Name())
	}
}

// TestSensitivityFastPathBoundary pins the answer-path boundaries on
// the Fig. 1 oscillator against the engine's own certificate: a
// perturbation strictly within an arc's certified slack is answered
// without simulating, an increase at or beyond the boundary is billed
// to the what-if rows, an uncertified decrease pays a full analysis —
// and every answer must match the one-shot oracle.
func TestSensitivityFastPathBoundary(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	slacks, err := e.Slacks()
	if err != nil {
		t.Fatalf("Slacks: %v", err)
	}
	res, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Pick the arc with the largest certified slack and a tight arc on
	// the critical cycle.
	slackArc, tightArc := -1, -1
	bestS := 0.0
	for _, s := range slacks {
		if s.Slack > bestS {
			bestS, slackArc = s.Slack, s.Arc
		}
	}
	onCrit := map[int]bool{}
	for _, c := range res.Critical {
		for _, ai := range c.Arcs {
			onCrit[ai] = true
		}
	}
	offCrit := -1 // an arc avoided by the (single) critical cycle
	for _, s := range slacks {
		if s.Tight && onCrit[s.Arc] && tightArc < 0 {
			tightArc = s.Arc
		}
		if !onCrit[s.Arc] && offCrit < 0 {
			offCrit = s.Arc
		}
	}
	if slackArc < 0 || tightArc < 0 || offCrit < 0 || bestS < 1 {
		t.Fatalf("fixture lacks the needed arcs: slackArc=%d (s=%g) tightArc=%d offCrit=%d",
			slackArc, bestS, tightArc, offCrit)
	}

	query := func(arc int, delay float64) cycletime.EngineStats {
		t.Helper()
		lam, err := e.Sensitivity(arc, delay)
		if err != nil {
			t.Fatalf("Sensitivity(%d, %g): %v", arc, delay, err)
		}
		oracle, err := cycletime.Sensitivity(g, arc, delay)
		if err != nil {
			t.Fatalf("oracle Sensitivity(%d, %g): %v", arc, delay, err)
		}
		if !lam.Equal(oracle) {
			t.Errorf("Sensitivity(%d, %g) = %v, oracle %v", arc, delay, lam, oracle)
		}
		return e.Stats()
	}

	base := e.Stats()
	// Strictly within the certified slack: answered without simulating.
	st := query(slackArc, g.Arc(slackArc).Delay+bestS/2)
	if st.FastPathHits != base.FastPathHits+1 || st.Analyses != base.Analyses || st.TableAnswers != base.TableAnswers {
		t.Errorf("within-slack query: stats %+v -> %+v, want one fast-path hit only", base, st)
	}
	// Exactly on the certified boundary: the conservative float guard
	// hands the increase over to the what-if rows (the answer is still
	// λ-unchanged, computed exactly, with no full analysis).
	st2 := query(slackArc, g.Arc(slackArc).Delay+bestS)
	if st2.FastPathHits != st.FastPathHits || st2.TableAnswers != st.TableAnswers+1 || st2.Analyses != st.Analyses {
		t.Errorf("boundary query: stats %+v -> %+v, want one table answer", st, st2)
	}
	// Beyond the certified slack (λ moves): still a table answer.
	st3 := query(slackArc, g.Arc(slackArc).Delay+bestS+3)
	if st3.TableAnswers != st2.TableAnswers+1 || st3.Analyses != st2.Analyses {
		t.Errorf("beyond-slack query: stats %+v -> %+v, want one table answer", st2, st3)
	}
	// Tight arc, any increase: table answer with λ moving by Δ/ε.
	st4 := query(tightArc, g.Arc(tightArc).Delay+2)
	if st4.TableAnswers != st3.TableAnswers+1 || st4.FastPathHits != st3.FastPathHits {
		t.Error("tight-arc increase should be a table answer")
	}
	// Shrinking an arc the critical cycle avoids: certified unchanged.
	st5 := query(offCrit, g.Arc(offCrit).Delay/2)
	if st5.FastPathHits != st4.FastPathHits+1 || st5.Analyses != st4.Analyses {
		t.Error("shrinking an off-critical arc should take the fast path")
	}
	// Shrinking an arc on every cached critical cycle is the one case
	// with no certificate: it must pay a full analysis.
	st6 := query(tightArc, g.Arc(tightArc).Delay/2)
	if st6.Analyses != st5.Analyses+1 {
		t.Error("shrinking an all-critical arc did not run a full analysis")
	}
	// No-op query: certified trivially.
	st7 := query(tightArc, g.Arc(tightArc).Delay)
	if st7.FastPathHits != st6.FastPathHits+1 || st7.Analyses != st6.Analyses {
		t.Error("identity query should take the fast path")
	}
}

// TestEngineSlacksCertificate: the engine's simulation-seeded slacks
// form a valid certificate. The certifying potential is not unique —
// individual values may differ from the one-shot Slacks — but both must
// cover the same arcs, carry no negative slack, have every
// critical-cycle arc tight, and sum to zero around every critical
// cycle.
func TestEngineSlacksCertificate(t *testing.T) {
	fixtures := modeFixtures(t)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(12)
		b := 1 + rng.Intn(n)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: rng.Intn(2 * n), MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		fixtures[g.Name()] = g
	}
	for name, g := range fixtures {
		res, err := cycletime.Analyze(g)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", name, err)
		}
		legacy, err := cycletime.Slacks(g, res.CycleTime)
		if err != nil {
			t.Fatalf("%s: Slacks: %v", name, err)
		}
		e, err := cycletime.NewEngine(g)
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", name, err)
		}
		got, err := e.Slacks()
		if err != nil {
			t.Fatalf("%s: engine Slacks: %v", name, err)
		}
		if len(got) != len(legacy) {
			t.Fatalf("%s: %d slacks, want %d (same core arcs)", name, len(got), len(legacy))
		}
		byArc := map[int]cycletime.ArcSlack{}
		for i, s := range got {
			if s.Arc != legacy[i].Arc {
				t.Errorf("%s: slack[%d] covers arc %d, legacy covers %d", name, i, s.Arc, legacy[i].Arc)
			}
			if s.Slack < 0 {
				t.Errorf("%s: negative slack %g on arc %d", name, s.Slack, s.Arc)
			}
			byArc[s.Arc] = s
		}
		for _, c := range res.Critical {
			var sum float64
			for _, ai := range c.Arcs {
				s, ok := byArc[ai]
				if !ok || !s.Tight {
					t.Errorf("%s: critical arc %d not tight (slack %g)", name, ai, s.Slack)
				}
				sum += s.Slack
			}
			if math.Abs(sum) > 1e-6 {
				t.Errorf("%s: slack sum around critical cycle = %g, want 0", name, sum)
			}
		}
	}
}

// TestEngineBoundsMatchSequential: the concurrent engine bounds equal
// the two extreme analyses run by hand.
func TestEngineBoundsMatchSequential(t *testing.T) {
	for name, g := range modeFixtures(t) {
		t.Run(name, func(t *testing.T) {
			lo, hi := cycletime.Jitter(0.2)
			b, err := cycletime.AnalyzeBounds(g, lo, hi)
			if err != nil {
				t.Fatalf("AnalyzeBounds: %v", err)
			}
			gLo, err := g.WithDelays(lo)
			if err != nil {
				t.Fatal(err)
			}
			gHi, err := g.WithDelays(hi)
			if err != nil {
				t.Fatal(err)
			}
			rLo, err := cycletime.Analyze(gLo)
			if err != nil {
				t.Fatal(err)
			}
			rHi, err := cycletime.Analyze(gHi)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Min.Equal(rLo.CycleTime) || !b.Max.Equal(rHi.CycleTime) {
				t.Errorf("bounds [%v, %v], want [%v, %v]", b.Min, b.Max, rLo.CycleTime, rHi.CycleTime)
			}
			diffResults(t, b.MinResult, rLo)
			diffResults(t, b.MaxResult, rHi)
		})
	}
}

// TestEngineEditLoop: committed SetDelay edits shift the session
// baseline — analyses, slacks and sensitivities all follow — and
// ResetDelays restores the compiled nominal graph, all without
// recompiling.
func TestEngineEditLoop(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res, err := e.Analyze()
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.CycleTime.Float() != 10 {
		t.Fatalf("nominal λ = %v, want 10", res.CycleTime)
	}
	// Commit an edit: slow the a+ -> c+ arc from 3 to 6.
	arc := -1
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(i)
		if g.Event(a.From).Name == "a+" && g.Event(a.To).Name == "c+" {
			arc = i
		}
	}
	if err := e.SetDelay(arc, 6); err != nil {
		t.Fatalf("SetDelay: %v", err)
	}
	if e.Delay(arc) != 6 {
		t.Errorf("Delay(arc) = %g, want 6", e.Delay(arc))
	}
	edited, err := e.Analyze()
	if err != nil {
		t.Fatalf("edited Analyze: %v", err)
	}
	ng, err := g.WithArcDelay(arc, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cycletime.Analyze(ng)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, edited, want)
	// Sensitivities are now relative to the edited baseline.
	lam, err := e.Sensitivity(arc, 3)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if lam.Float() != 10 {
		t.Errorf("what-if back to 3: λ = %v, want 10", lam)
	}
	// The original graph was never touched.
	if g.Arc(arc).Delay != 3 {
		t.Errorf("SetDelay mutated the input graph: %g", g.Arc(arc).Delay)
	}
	e.ResetDelays()
	back, err := e.Analyze()
	if err != nil {
		t.Fatalf("reset Analyze: %v", err)
	}
	diffResults(t, back, res)
}

// TestEngineRepeatedSweeps: the decrease workers' private delay columns
// start from the session baseline in every sweep, including after a
// committed delay edit; every answer still matches the one-shot
// oracle. The sweep runs under GOMAXPROCS(4), so it takes the worker
// pool on any machine; the oracle runs serially under GOMAXPROCS(1).
func TestEngineRepeatedSweeps(t *testing.T) {
	g, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// All-decrease candidates force the λ-only decrease path.
	cands := make([]cycletime.WhatIf, g.NumArcs())
	for i := range cands {
		cands[i] = cycletime.WhatIf{Arc: i, Delay: g.Arc(i).Delay / 2}
	}
	check := func(round string, base *sg.Graph) {
		t.Helper()
		var got []stat.Ratio
		withProcs(4, func() { got, err = e.SensitivitySweep(cands) })
		if err != nil {
			t.Fatalf("%s sweep: %v", round, err)
		}
		for i, cd := range cands {
			var oracle stat.Ratio
			withProcs(1, func() { oracle, err = cycletime.Sensitivity(base, cd.Arc, cd.Delay) })
			if err != nil {
				t.Fatalf("%s oracle: %v", round, err)
			}
			if !got[i].Equal(oracle) {
				t.Errorf("%s: candidate %d (arc %d -> %g): sweep λ = %v, oracle λ = %v",
					round, i, cd.Arc, cd.Delay, got[i], oracle)
			}
		}
	}
	check("initial", g)
	check("repeat", g) // unchanged baseline
	// Commit an edit; the decreases must start from the new baseline.
	if err := e.SetDelay(0, g.Arc(0).Delay*4); err != nil {
		t.Fatalf("SetDelay: %v", err)
	}
	edited, err := g.WithArcDelay(0, g.Arc(0).Delay*4)
	if err != nil {
		t.Fatal(err)
	}
	check("edited", edited)
}

// TestEngineConcurrentQueries hammers one engine from many goroutines —
// mixed analyses, slacks, sensitivities and sweeps — to exercise the
// session lock and the worker pool under the race detector.
func TestEngineConcurrentQueries(t *testing.T) {
	g, err := gen.Stack(13)
	if err != nil {
		t.Fatalf("Stack: %v", err)
	}
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (w + i) % 4 {
				case 0:
					res, err := e.Analyze()
					if err != nil || !res.CycleTime.Equal(want.CycleTime) {
						t.Errorf("concurrent Analyze: λ=%v err=%v", res.CycleTime, err)
					}
				case 1:
					if _, err := e.Slacks(); err != nil {
						t.Errorf("concurrent Slacks: %v", err)
					}
				case 2:
					arc := (w*5 + i) % g.NumArcs()
					if _, err := e.Sensitivity(arc, g.Arc(arc).Delay+1); err != nil {
						t.Errorf("concurrent Sensitivity: %v", err)
					}
				default:
					cands := []cycletime.WhatIf{
						{Arc: (w + i) % g.NumArcs(), Delay: 1},
						{Arc: (w + 2*i) % g.NumArcs(), Delay: 4},
					}
					if _, err := e.SensitivitySweep(cands); err != nil {
						t.Errorf("concurrent sweep: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEngineErrors: constructor and query validation.
func TestEngineErrors(t *testing.T) {
	g := gen.Oscillator()
	e, err := cycletime.NewEngine(g)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := e.Sensitivity(99, 1); err == nil {
		t.Error("out-of-range arc accepted")
	}
	if _, err := e.Sensitivity(0, -2); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := e.Sensitivity(0, math.NaN()); err == nil {
		t.Error("NaN delay accepted")
	}
	if _, err := e.SensitivitySweep([]cycletime.WhatIf{{Arc: 0, Delay: math.NaN()}}); err == nil {
		t.Error("sweep with NaN delay accepted")
	}
	if err := e.SetDelay(0, math.NaN()); err == nil {
		t.Error("SetDelay with NaN delay accepted")
	}
	if _, err := e.SensitivitySweep([]cycletime.WhatIf{{Arc: -1, Delay: 1}}); err == nil {
		t.Error("sweep with bad arc accepted")
	}
	if _, err := e.SensitivitySweep([]cycletime.WhatIf{{Arc: 0, Delay: -1}}); err == nil {
		t.Error("sweep with negative delay accepted")
	}
	if err := e.SetDelay(0, -1); err == nil {
		t.Error("SetDelay with negative delay accepted")
	}
	bad := func(int, float64) float64 { return -1 }
	id := func(_ int, d float64) float64 { return d }
	if _, err := e.AnalyzeBounds(bad, id); err == nil {
		t.Error("negative lower bounds accepted")
	}
	if _, err := e.AnalyzeBounds(id, bad); err == nil {
		t.Error("negative upper bounds accepted")
	}
	double := func(_ int, d float64) float64 { return 2 * d }
	if _, err := e.AnalyzeBounds(double, id); err == nil {
		t.Error("lo > hi accepted")
	}
}
