package cycletime_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsg/internal/cycles"
	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
)

// TestOscillator checks the full §VIII.C analysis: λ = 10, the δ series
// collected from border events a+ (10, 10) and b+ (8, 9), the
// on-critical classification (Prop. 7/8) and the critical cycle
// a+ → c+ → a- → c- (C1 of Example 5; the §VIII.C text prints C2, an
// erratum — C2 has length 8).
func TestOscillator(t *testing.T) {
	g := gen.Oscillator()
	res, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.CycleTime.Float() != 10 {
		t.Errorf("cycle time = %v, want 10", res.CycleTime)
	}
	if res.Periods != 2 {
		t.Errorf("periods = %d, want b = 2", res.Periods)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series count = %d, want 2 border events", len(res.Series))
	}
	bySeries := map[string][]float64{}
	onCrit := map[string]bool{}
	for _, s := range res.Series {
		name := g.Event(s.Event).Name
		bySeries[name] = s.Distances
		onCrit[name] = s.OnCritical
	}
	if d := bySeries["a+"]; len(d) != 2 || d[0] != 10 || d[1] != 10 {
		t.Errorf("δ_a+0 series = %v, want [10 10] (§VIII.C)", d)
	}
	if d := bySeries["b+"]; len(d) != 2 || d[0] != 8 || d[1] != 9 {
		t.Errorf("δ_b+0 series = %v, want [8 9] (§VIII.C)", d)
	}
	if !onCrit["a+"] || onCrit["b+"] {
		t.Errorf("on-critical flags a+=%v b+=%v, want true/false (Prop. 7/8)",
			onCrit["a+"], onCrit["b+"])
	}
	if len(res.Critical) != 1 {
		t.Fatalf("critical cycles = %d, want 1", len(res.Critical))
	}
	crit := res.Critical[0]
	if crit.Length != 10 || crit.Period != 1 {
		t.Errorf("critical cycle length/ε = %g/%d, want 10/1", crit.Length, crit.Period)
	}
	names := g.EventNames(crit.Events)
	joined := strings.Join(names, " ")
	for _, ev := range []string{"a+", "c+", "a-", "c-"} {
		if !strings.Contains(joined, ev) {
			t.Errorf("critical cycle = %v, want C1 {a+ c+ a- c-}", names)
		}
	}
	if got := crit.Format(g); !strings.Contains(got, "-3->") || !strings.Contains(got, "-2->") {
		t.Errorf("Format = %q, want delay-annotated arrows", got)
	}
}

// TestMullerRing5 checks §VIII.D end to end: border set of 4 events,
// t_{o1+0}(o1+_i) = 6, 13, 20, 26 over the required 4 periods, cycle
// time exactly 20/3, and a critical cycle covering 3 periods.
func TestMullerRing5(t *testing.T) {
	g, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	border := g.EventNames(g.BorderEvents())
	if strings.Join(border, ",") != "o1+,o2+,o3+,o5-" {
		t.Fatalf("border = %v, want [o1+ o2+ o3+ o5-] (a↑ b↑ c↑ e↓ in the paper)", border)
	}
	res, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	r := res.CycleTime.Normalize()
	if r.Num != 20 || r.Den != 3 {
		t.Fatalf("cycle time = %v, want 20/3 (§VIII.D)", res.CycleTime)
	}
	// The a+-initiated distance series over 4 periods: 6, 13/2, 20/3, 26/4.
	var a1 *cycletime.BorderSeries
	for i := range res.Series {
		if g.Event(res.Series[i].Event).Name == "o1+" {
			a1 = &res.Series[i]
		}
	}
	if a1 == nil {
		t.Fatal("no series for o1+")
	}
	want := []float64{6, 13.0 / 2, 20.0 / 3, 26.0 / 4}
	if len(a1.Distances) != 4 {
		t.Fatalf("o1+ series length = %d, want 4 (b = 4 periods)", len(a1.Distances))
	}
	for i, w := range want {
		if math.Abs(a1.Distances[i]-w) > 1e-12 {
			t.Errorf("δ_o1+0(o1+_%d) = %g, want %g (§VIII.D table)", i+1, a1.Distances[i], w)
		}
	}
	if !a1.OnCritical {
		t.Error("o1+ not marked on-critical; the ring is symmetric, every border event is")
	}
	for _, c := range res.Critical {
		if c.Period != 3 {
			t.Errorf("critical cycle ε = %d, want 3", c.Period)
		}
		if c.Length != 20 {
			t.Errorf("critical cycle length = %g, want 20", c.Length)
		}
	}
}

// TestMullerRingExtendedSeries reproduces the 10-period table of §VIII.D:
// t_{a+0}(a+_i) = 6 13 20 26 33 40 46 53 60 66 and the per-period
// occurrence distances 6 7 7 | 6 7 7 | 6 7 7 | 6.
func TestMullerRingExtendedSeries(t *testing.T) {
	g, err := gen.MullerRing(5)
	if err != nil {
		t.Fatalf("MullerRing: %v", err)
	}
	res, err := cycletime.AnalyzeOpts(g, cycletime.Options{Periods: 10})
	if err != nil {
		t.Fatalf("AnalyzeOpts: %v", err)
	}
	var a1 *cycletime.BorderSeries
	for i := range res.Series {
		if g.Event(res.Series[i].Event).Name == "o1+" {
			a1 = &res.Series[i]
		}
	}
	if a1 == nil {
		t.Fatal("no series for o1+")
	}
	wantT := []float64{6, 13, 20, 26, 33, 40, 46, 53, 60, 66}
	for i, w := range wantT {
		got := a1.Distances[i] * float64(i+1) // δ·i = t
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("t_o1+0(o1+_%d) = %g, want %g (§VIII.D table)", i+1, got, w)
		}
	}
	r := res.CycleTime.Normalize()
	if r.Num != 20 || r.Den != 3 {
		t.Errorf("cycle time over 10 periods = %v, want 20/3", res.CycleTime)
	}
}

// TestStackConstantResponse checks the §VIII.B workload family: the
// stack's cycle time is the local handshake period (4) regardless of
// depth — the defining property of a constant-response-time stack.
func TestStackConstantResponse(t *testing.T) {
	for _, cells := range []int{1, 2, 5, 13, 31} {
		g, err := gen.Stack(cells)
		if err != nil {
			t.Fatalf("Stack(%d): %v", cells, err)
		}
		res, err := cycletime.Analyze(g)
		if err != nil {
			t.Fatalf("Analyze(stack-%d): %v", cells, err)
		}
		if got := res.CycleTime.Float(); got != 4 {
			t.Errorf("stack-%d cycle time = %v, want 4 (constant response)", cells, res.CycleTime)
		}
	}
	// The paper's benchmark size: 66 events.
	g, err := gen.Stack(31)
	if err != nil {
		t.Fatalf("Stack(31): %v", err)
	}
	if g.NumEvents() != 66 {
		t.Errorf("stack-31 has %d events, want 66 (§VIII.B)", g.NumEvents())
	}
}

// TestAgainstOracle cross-validates the paper's algorithm against the
// simple-cycle enumeration oracle (§V) on random live graphs.
func TestAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		b := 1 + rng.Intn(n)
		extra := rng.Intn(2 * n)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: extra, MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("trial %d: RandomLive: %v", trial, err)
		}
		want, _, err := cycles.MaxRatio(g, 0)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		res, err := cycletime.Analyze(g)
		if err != nil {
			t.Fatalf("trial %d: Analyze(%s): %v", trial, g, err)
		}
		if !res.CycleTime.Equal(want) {
			t.Errorf("trial %d: %s: algorithm λ = %v, oracle λ = %v",
				trial, g, res.CycleTime, want)
		}
		// Every reported critical cycle must attain λ exactly.
		for _, c := range res.Critical {
			if !c.Ratio().Equal(want) {
				t.Errorf("trial %d: critical cycle ratio %v != λ %v", trial, c.Ratio(), want)
			}
		}
		// Prop. 8: off-critical series stay strictly below λ.
		for _, s := range res.Series {
			if s.OnCritical {
				continue
			}
			for _, d := range s.Distances {
				if !math.IsNaN(d) && d >= want.Float()+1e-9 {
					t.Errorf("trial %d: off-critical event %s has δ = %g >= λ = %v",
						trial, g.Event(s.Event).Name, d, want)
				}
			}
		}
	}
}

// TestCutSetOverride runs the analysis from the minimum cut set instead
// of the border set (the ablation of §VI.B: the paper notes one period
// suffices for the oscillator because its minimum cut set has size 1).
func TestCutSetOverride(t *testing.T) {
	g := gen.Oscillator()
	min, err := g.MinimumCutSet()
	if err != nil {
		t.Fatalf("MinimumCutSet: %v", err)
	}
	res, err := cycletime.AnalyzeOpts(g, cycletime.Options{CutSet: min})
	if err != nil {
		t.Fatalf("AnalyzeOpts: %v", err)
	}
	if res.CycleTime.Float() != 10 {
		t.Errorf("cycle time from minimum cut set = %v, want 10", res.CycleTime)
	}
	if res.Periods != 2 {
		t.Errorf("periods = %d, want the safe default b = 2", res.Periods)
	}
	// The paper's §VIII.C remark: because the oscillator's minimum cut
	// set has one element (and all its cycles have ε = 1), one period
	// suffices — expressible with an explicit override.
	res1, err := cycletime.AnalyzeOpts(g, cycletime.Options{CutSet: min, Periods: 1})
	if err != nil {
		t.Fatalf("AnalyzeOpts(periods=1): %v", err)
	}
	if res1.CycleTime.Float() != 10 || res1.Periods != 1 {
		t.Errorf("1-period minimum-cut analysis = %v over %d periods, want 10 over 1",
			res1.CycleTime, res1.Periods)
	}

	// A non-cut-set must be rejected.
	if _, err := cycletime.AnalyzeOpts(g, cycletime.Options{
		CutSet: []sg.EventID{g.MustEvent("a+")},
	}); err == nil {
		t.Error("AnalyzeOpts accepted a non-cut-set")
	}
	// Non-repetitive events are not valid cut-set members.
	if _, err := cycletime.AnalyzeOpts(g, cycletime.Options{
		CutSet: []sg.EventID{g.MustEvent("e-")},
	}); err == nil {
		t.Error("AnalyzeOpts accepted a non-repetitive cut-set member")
	}
	if _, err := cycletime.AnalyzeOpts(g, cycletime.Options{
		CutSet: []sg.EventID{sg.EventID(99)},
	}); err == nil {
		t.Error("AnalyzeOpts accepted an out-of-range cut-set member")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	g := gen.Oscillator()
	if _, err := cycletime.AnalyzeOpts(g, cycletime.Options{Periods: -1}); err == nil {
		t.Error("negative periods accepted")
	}
	// A graph without repetitive events has no cycle time.
	acyclic, err := sg.NewBuilder("acyclic").
		Event("e-", sg.NonRepetitive()).
		Event("f-", sg.NonRepetitive()).
		Arc("e-", "f-", 1).BuildUnchecked()
	if err != nil {
		t.Fatalf("BuildUnchecked: %v", err)
	}
	if _, err := cycletime.Analyze(acyclic); err == nil {
		t.Error("Analyze on acyclic graph succeeded, want error")
	}
}

// TestExactRatios verifies that cycle times are reported as exact
// rationals: a three-event ring with delays 1,1,1 and one token has
// λ = 3, and with two tokens on a five-ring of unit delays λ = 5/2.
func TestExactRatios(t *testing.T) {
	b := sg.NewBuilder("ring3").Events("x+", "y+", "z+").
		Arc("x+", "y+", 1).
		Arc("y+", "z+", 1).
		Arc("z+", "x+", 1, sg.Marked())
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r := res.CycleTime.Normalize(); r.Num != 3 || r.Den != 1 {
		t.Errorf("ring3 λ = %v, want 3", res.CycleTime)
	}

	b5 := sg.NewBuilder("ring5t2").Events("v0", "v1", "v2", "v3", "v4").
		Arc("v0", "v1", 1).
		Arc("v1", "v2", 1, sg.Marked()).
		Arc("v2", "v3", 1).
		Arc("v3", "v4", 1).
		Arc("v4", "v0", 1, sg.Marked())
	g5, err := b5.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res5, err := cycletime.Analyze(g5)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r := res5.CycleTime.Normalize(); r.Num != 5 || r.Den != 2 {
		t.Errorf("ring5 with 2 tokens λ = %v, want 5/2", res5.CycleTime)
	}
	for _, c := range res5.Critical {
		if c.Period != 2 {
			t.Errorf("critical ε = %d, want 2", c.Period)
		}
	}
}

// TestPeriodsDefaultIsSound documents why the default period count is b
// rather than the cut-set size: a graph whose critical cycle covers
// ε = 3 periods can share a single cut event with a lesser ε = 1 cycle.
// Simulating |cut| = 1 period from the cut set sees only the lesser
// cycle and silently reports the wrong λ; the b-period default is sound
// because ε <= b for every initially-safe graph. (Prop. 6's bound via
// the minimum cut set does not hold in general — see the cycles package
// tests and EXPERIMENTS.md.)
func TestPeriodsDefaultIsSound(t *testing.T) {
	g, err := sg.NewBuilder("two-loops").
		Events("x", "a", "b", "c").
		Arc("x", "a", 1).
		Arc("a", "x", 1, sg.Marked()). // small loop: ratio 2/1
		Arc("x", "b", 3, sg.Marked()).
		Arc("b", "c", 3, sg.Marked()).
		Arc("c", "x", 3, sg.Marked()). // big loop: ratio 9/3 = 3 (critical)
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want, _, err := cycles.MaxRatio(g, 0)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if want.Float() != 3 {
		t.Fatalf("oracle λ = %v, fixture broken", want)
	}
	cut := []sg.EventID{g.MustEvent("x")}
	if !g.IsCutSet(cut) {
		t.Fatal("fixture: {x} is not a cut set")
	}
	// Safe default: correct.
	res, err := cycletime.AnalyzeOpts(g, cycletime.Options{CutSet: cut})
	if err != nil {
		t.Fatalf("AnalyzeOpts: %v", err)
	}
	if !res.CycleTime.Equal(want) {
		t.Errorf("default-period cut-set analysis λ = %v, want %v", res.CycleTime, want)
	}
	// Forcing |cut| = 1 period demonstrates the hazard: only the small
	// loop is visible and the result is silently wrong. This is the
	// behaviour the default guards against.
	res1, err := cycletime.AnalyzeOpts(g, cycletime.Options{CutSet: cut, Periods: 1})
	if err != nil {
		t.Fatalf("AnalyzeOpts(periods=1): %v", err)
	}
	if res1.CycleTime.Float() != 2 {
		t.Errorf("1-period analysis λ = %v; expected the documented wrong answer 2", res1.CycleTime)
	}
}

// TestDedupeCycles: rotations of one simple cycle collapse onto the
// first seen; a different arc order or occurrence period does not.
func TestDedupeCycles(t *testing.T) {
	cyc := func(period int, arcs ...int) *cycletime.CriticalCycle {
		return &cycletime.CriticalCycle{Arcs: arcs, Period: period}
	}
	got := cycletime.DedupeCycles([]*cycletime.CriticalCycle{
		cyc(2, 7, 3, 9, 5),
		cyc(2, 9, 5, 7, 3), // rotation of the first
		cyc(2, 3, 9, 5, 7), // rotation anchored at the smallest arc
		cyc(2, 7, 5, 9, 3), // same arcs, other order
		cyc(1, 5, 7, 3, 9), // rotation, other period
		cyc(2, 3, 9),
	})
	want := [][]int{{7, 3, 9, 5}, {7, 5, 9, 3}, {5, 7, 3, 9}, {3, 9}}
	if len(got) != len(want) {
		t.Fatalf("DedupeCycles kept %d cycles, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if fmt.Sprint(got[i].Arcs) != fmt.Sprint(w) {
			t.Errorf("cycle %d arcs %v, want %v", i, got[i].Arcs, w)
		}
	}
}
