package cycletime_test

import (
	"math/rand"
	"testing"

	"tsg/internal/cycletime"
	"tsg/internal/gen"
	"tsg/internal/sg"
	"tsg/internal/stat"
)

// TestOscillatorSlacks: every arc of the critical cycle C1 is tight at
// λ = 10 and no slack is negative.
func TestOscillatorSlacks(t *testing.T) {
	g := gen.Oscillator()
	res, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	slacks, err := cycletime.Slacks(g, res.CycleTime)
	if err != nil {
		t.Fatalf("Slacks: %v", err)
	}
	critical := map[int]bool{}
	for _, c := range res.Critical {
		for _, ai := range c.Arcs {
			critical[ai] = true
		}
	}
	tight := 0
	for _, s := range slacks {
		a := g.Arc(s.Arc)
		name := g.Event(a.From).Name + "->" + g.Event(a.To).Name
		if critical[s.Arc] && !s.Tight {
			t.Errorf("critical arc %s has slack %g, want 0", name, s.Slack)
		}
		if s.Slack < 0 {
			t.Errorf("arc %s has negative slack %g", name, s.Slack)
		}
		if s.Tight {
			tight++
		}
	}
	// All 4 arcs of C1 are tight. The feasible potential is not unique,
	// so further arcs may be coincidentally tight, but never fewer.
	if tight < 4 {
		t.Errorf("tight arcs = %d, want >= 4 (the critical cycle)", tight)
	}
	// b- -> c- (delay 2) is on C3/C4 only (lengths 8 and 6): it must
	// have strictly positive slack in any feasible potential, since no
	// cycle through it attains 10... except via shared tight chains.
	// Assert instead on the guaranteed direction: critical => tight,
	// checked above, and the slack sum around C1 is zero.
	var c1Slack float64
	for _, c := range res.Critical {
		for _, ai := range c.Arcs {
			for _, s := range slacks {
				if s.Arc == ai {
					c1Slack += s.Slack
				}
			}
		}
	}
	if c1Slack != 0 {
		t.Errorf("slack sum around critical cycle = %g, want 0", c1Slack)
	}
}

// TestSlacksProperty: on random graphs, every critical-cycle arc is
// tight and no slack is negative.
func TestSlacksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(12)
		b := 1 + rng.Intn(n)
		g, err := gen.RandomLive(rng, gen.RandomOptions{
			Events: n, Border: b, ExtraArcs: rng.Intn(2 * n), MaxDelay: 9,
		})
		if err != nil {
			t.Fatalf("RandomLive: %v", err)
		}
		res, err := cycletime.Analyze(g)
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		slacks, err := cycletime.Slacks(g, res.CycleTime)
		if err != nil {
			t.Fatalf("Slacks: %v", err)
		}
		byArc := map[int]cycletime.ArcSlack{}
		for _, s := range slacks {
			byArc[s.Arc] = s
			if s.Slack < 0 {
				t.Errorf("trial %d: negative slack %g", trial, s.Slack)
			}
		}
		for _, c := range res.Critical {
			for _, ai := range c.Arcs {
				if s, ok := byArc[ai]; !ok || !s.Tight {
					t.Errorf("trial %d: critical arc %d not tight (slack %g)", trial, ai, s.Slack)
				}
			}
		}
	}
}

// TestSlacksBelowLambdaFails: no feasible potential exists below λ.
func TestSlacksBelowLambdaFails(t *testing.T) {
	g := gen.Oscillator()
	if _, err := cycletime.Slacks(g, stat.NewRatio(9, 1)); err == nil {
		t.Error("Slacks below λ succeeded, want infeasible")
	}
}

// TestSensitivity: raising a tight arc's delay raises λ by Δ/ε; raising
// a slack arc within its slack leaves λ unchanged.
func TestSensitivity(t *testing.T) {
	g := gen.Oscillator()
	// Tight arc: a+ -> c+ (delay 3, on C1 with ε = 1). Raising it by 2
	// raises λ by 2.
	var tightArc, slackArc = -1, -1
	for i := 0; i < g.NumArcs(); i++ {
		a := g.Arc(i)
		from, to := g.Event(a.From).Name, g.Event(a.To).Name
		if from == "a+" && to == "c+" {
			tightArc = i
		}
		if from == "b+" && to == "c+" {
			slackArc = i // on C2/C4 only (length 8/6), slack 2 at λ=10
		}
	}
	if tightArc < 0 || slackArc < 0 {
		t.Fatal("fixture arcs not found")
	}
	up, err := cycletime.Sensitivity(g, tightArc, 5)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if up.Float() != 12 {
		t.Errorf("λ after tight arc 3->5 = %v, want 12", up)
	}
	same, err := cycletime.Sensitivity(g, slackArc, 4)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if same.Float() != 10 {
		t.Errorf("λ after slack arc 2->4 = %v, want 10 (within slack)", same)
	}
	over, err := cycletime.Sensitivity(g, slackArc, 7)
	if err != nil {
		t.Fatalf("Sensitivity: %v", err)
	}
	if over.Float() != 13 {
		t.Errorf("λ after slack arc 2->7 = %v, want 13 (C3 = 7+2+3+1 now dominates)", over)
	}
	// Out-of-range and negative inputs.
	if _, err := cycletime.Sensitivity(g, 99, 1); err == nil {
		t.Error("Sensitivity with bad arc index succeeded")
	}
	if _, err := cycletime.Sensitivity(g, tightArc, -1); err == nil {
		t.Error("Sensitivity with negative delay succeeded")
	}
	// The original graph is untouched.
	if g.Arc(tightArc).Delay != 3 {
		t.Error("Sensitivity mutated the input graph")
	}
}

// TestMultiArcCycleTime: a two-event loop where the return connection
// carries two tokens has cycle time (d1+d2)/2; the safe transformation
// must preserve it while keeping the graph initially-safe.
func TestMultiArcCycleTime(t *testing.T) {
	g, err := sg.NewBuilder("double").
		Events("p+", "q+").
		Arc("p+", "q+", 5).
		MultiArc("q+", "p+", 3, 2).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEvents() != 3 { // one dummy inserted
		t.Errorf("events = %d, want 3 (one dummy)", g.NumEvents())
	}
	res, err := cycletime.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if r := res.CycleTime.Normalize(); r.Num != 4 || r.Den != 1 {
		t.Errorf("λ = %v, want (5+3)/2 = 4", res.CycleTime)
	}
	for _, c := range res.Critical {
		if c.Period != 2 {
			t.Errorf("critical ε = %d, want 2", c.Period)
		}
	}
}

func TestMultiArcDegenerateCounts(t *testing.T) {
	// tokens=0 and tokens=1 behave like plain/marked arcs.
	g, err := sg.NewBuilder("plain").
		Events("p+", "q+").
		MultiArc("p+", "q+", 1, 0).
		MultiArc("q+", "p+", 1, 1).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumEvents() != 2 || g.NumArcs() != 2 {
		t.Errorf("graph = %d events %d arcs, want 2/2", g.NumEvents(), g.NumArcs())
	}
	if _, err := sg.NewBuilder("neg").Events("p+").MultiArc("p+", "p+", 1, -1).Build(); err == nil {
		t.Error("negative token count accepted")
	}
}

// TestScaledHomogeneity: scaling all delays scales λ.
func TestScaledHomogeneity(t *testing.T) {
	g := gen.Oscillator()
	s, err := g.Scaled(2.5)
	if err != nil {
		t.Fatalf("Scaled: %v", err)
	}
	res, err := cycletime.Analyze(s)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.CycleTime.Float() != 25 {
		t.Errorf("scaled λ = %v, want 25", res.CycleTime)
	}
	if _, err := g.Scaled(-1); err == nil {
		t.Error("negative scale accepted")
	}
	if g.Arc(0).Delay == s.Arc(0).Delay && g.Arc(0).Delay != 0 {
		t.Error("Scaled mutated or shared the delay")
	}
}
