package tsg_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tsg"
	"tsg/internal/timesim"
)

// TestPublicAPIGraphFlow exercises the documented quick-start flow.
func TestPublicAPIGraphFlow(t *testing.T) {
	g, err := tsg.NewGraph("ring").
		Events("x+", "y+", "z+").
		Arc("x+", "y+", 1).
		Arc("y+", "z+", 1).
		Arc("z+", "x+", 1, tsg.Marked()).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := tsg.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.CycleTime.Float() != 3 {
		t.Errorf("λ = %v, want 3", res.CycleTime)
	}
	tr, err := tsg.Simulate(g, 3)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if v, _ := tr.Time(g.MustEvent("x+"), 2); v != 6 {
		t.Errorf("t(x+_2) = %g, want 6", v)
	}
	tri, err := tsg.SimulateFrom(g, g.MustEvent("x+"), 3)
	if err != nil {
		t.Fatalf("SimulateFrom: %v", err)
	}
	if d, err := tri.Distance(1); err != nil || d != 3 {
		t.Errorf("δ(1) = %g, %v; want 3", d, err)
	}
}

// TestPublicAPICircuitFlow exercises the circuit-level flow of §VIII.
func TestPublicAPICircuitFlow(t *testing.T) {
	c, err := tsg.NewCircuit("osc").
		Input("e", tsg.High).
		Gate(tsg.Buf, "f", []string{"e"}, 3).
		Gate(tsg.Nor, "a", []string{"e", "c"}, 2, 2).
		Gate(tsg.Nor, "b", []string{"f", "c"}, 1, 1).
		Gate(tsg.CElement, "c", []string{"a", "b"}, 3, 2).
		Init("f", tsg.High).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	script := []tsg.InputEvent{{Signal: "e", Time: 0, Level: tsg.Low}}

	states, err := tsg.VerifyCircuit(c, tsg.VerifyOptions{Inputs: script})
	if err != nil {
		t.Fatalf("VerifyCircuit: %v", err)
	}
	if states == 0 {
		t.Error("VerifyCircuit explored no states")
	}
	sim, err := tsg.SimulateCircuit(c, tsg.CircuitSimOptions{Inputs: script, MaxTransitions: 10})
	if err != nil {
		t.Fatalf("SimulateCircuit: %v", err)
	}
	if len(sim.Transitions) != 10 {
		t.Errorf("transitions = %d, want 10", len(sim.Transitions))
	}
	res, g, err := tsg.AnalyzeCircuit(c, script)
	if err != nil {
		t.Fatalf("AnalyzeCircuit: %v", err)
	}
	if res.CycleTime.Float() != 10 {
		t.Errorf("λ = %v, want 10", res.CycleTime)
	}
	if g.NumEvents() != 8 {
		t.Errorf("extracted events = %d, want 8", g.NumEvents())
	}
}

// TestFileIO round-trips graphs and circuits through the testdata
// fixtures generated by cmd/tsggen.
func TestFileIO(t *testing.T) {
	g, err := tsg.LoadGraph(filepath.Join("testdata", "oscillator.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	res, err := tsg.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.CycleTime.Float() != 10 {
		t.Errorf("oscillator.tsg λ = %v, want 10", res.CycleTime)
	}

	n, err := tsg.LoadCircuit(filepath.Join("testdata", "ring5.ckt"))
	if err != nil {
		t.Fatalf("LoadCircuit: %v", err)
	}
	resC, _, err := tsg.AnalyzeCircuit(n.Circuit, n.Inputs)
	if err != nil {
		t.Fatalf("AnalyzeCircuit: %v", err)
	}
	if r := resC.CycleTime.Normalize(); r.Num != 20 || r.Den != 3 {
		t.Errorf("ring5.ckt λ = %v, want 20/3", resC.CycleTime)
	}

	stack, err := tsg.LoadGraph(filepath.Join("testdata", "stack31.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph(stack): %v", err)
	}
	if stack.NumEvents() != 66 {
		t.Errorf("stack31.tsg events = %d, want 66", stack.NumEvents())
	}

	// Save/Load round trip through a temp file.
	tmp := filepath.Join(t.TempDir(), "x.tsg")
	if err := tsg.SaveGraph(tmp, g); err != nil {
		t.Fatalf("SaveGraph: %v", err)
	}
	back, err := tsg.LoadGraph(tmp)
	if err != nil {
		t.Fatalf("LoadGraph(tmp): %v", err)
	}
	if back.NumEvents() != g.NumEvents() || back.NumArcs() != g.NumArcs() {
		t.Error("Save/Load round trip changed the graph")
	}
	if _, err := tsg.LoadGraph(filepath.Join("testdata", "nope.tsg")); err == nil {
		t.Error("LoadGraph of missing file succeeded")
	}
}

// TestWriteGraphFormat spot-checks the serialised form.
func TestWriteGraphFormat(t *testing.T) {
	g, err := tsg.NewGraph("x").
		Event("e-", tsg.NonRepetitive()).
		Events("a+").
		Arc("e-", "a+", 2, tsg.Once()).
		Arc("a+", "a+", 1, tsg.Marked()).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var sb strings.Builder
	if err := tsg.WriteGraph(&sb, g); err != nil {
		t.Fatalf("WriteGraph: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"tsg x", "event e- nonrepetitive", "arc e- a+ 2 once", "arc a+ a+ 1 marked"} {
		if !strings.Contains(out, want) {
			t.Errorf("serialisation missing %q:\n%s", want, out)
		}
	}
}

// TestAnalysisFacade exercises the secondary-analysis surface.
func TestAnalysisFacade(t *testing.T) {
	g, err := tsg.LoadGraph(filepath.Join("testdata", "oscillator.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	res, err := tsg.Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	slacks, err := tsg.Slacks(g, res.CycleTime)
	if err != nil {
		t.Fatalf("Slacks: %v", err)
	}
	if len(slacks) == 0 {
		t.Error("no slacks computed")
	}
	if r, err := tsg.CycleTimeKarp(g); err != nil || r.Float() != 10 {
		t.Errorf("Karp = %v, %v", r, err)
	}
	if r, err := tsg.CycleTimeHoward(g); err != nil || r.Float() != 10 {
		t.Errorf("Howard = %v, %v", r, err)
	}
	if v, err := tsg.CycleTimeLawler(g, 0); err != nil || v < 9.9 || v > 10.1 {
		t.Errorf("Lawler = %g, %v", v, err)
	}
	cycs, err := tsg.EnumerateCycles(g, 0)
	if err != nil || len(cycs) != 4 {
		t.Errorf("EnumerateCycles = %d cycles, %v; want 4", len(cycs), err)
	}
	if _, err := tsg.Sensitivity(g, 0, 9); err != nil {
		t.Errorf("Sensitivity: %v", err)
	}

	// PERT on a tiny project network.
	p, err := tsg.NewGraph("proj").
		Event("s", tsg.NonRepetitive()).
		Event("t", tsg.NonRepetitive()).
		Arc("s", "t", 7).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	makespan, path, err := tsg.CriticalPath(p)
	if err != nil || makespan != 7 || len(path) != 2 {
		t.Errorf("CriticalPath = %g, %v, %v", makespan, path, err)
	}
}

// TestExtendedAnalyses exercises the bounds, max-plus and extraction
// option surfaces of the facade.
func TestExtendedAnalyses(t *testing.T) {
	g, err := tsg.LoadGraph(filepath.Join("testdata", "ring5.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	lo, hi := tsg.Jitter(0.5)
	b, err := tsg.AnalyzeBounds(g, lo, hi)
	if err != nil {
		t.Fatalf("AnalyzeBounds: %v", err)
	}
	if b.Min.Float() != 10.0/3 || b.Max.Float() != 10 {
		t.Errorf("ring bounds = [%v, %v], want [10/3, 10] (±50%% of 20/3)", b.Min, b.Max)
	}
	mp, err := tsg.CycleTimeMaxPlus(g)
	if err != nil {
		t.Fatalf("CycleTimeMaxPlus: %v", err)
	}
	if r := mp.Normalize(); r.Num != 20 || r.Den != 3 {
		t.Errorf("max-plus λ = %v, want 20/3", mp)
	}

	// Extraction with explicit options through the facade.
	n, err := tsg.LoadCircuit(filepath.Join("testdata", "oscillator.ckt"))
	if err != nil {
		t.Fatalf("LoadCircuit: %v", err)
	}
	eg, err := tsg.ExtractGraphOpts(n.Circuit, tsg.ExtractOptions{
		Inputs:                  n.Inputs,
		MaxTransitionsPerSignal: 16,
	})
	if err != nil {
		t.Fatalf("ExtractGraphOpts: %v", err)
	}
	if eg.NumEvents() != 8 {
		t.Errorf("extracted events = %d, want 8", eg.NumEvents())
	}

	// Writing circuits through the facade.
	var sb strings.Builder
	if err := tsg.WriteCircuit(&sb, n); err != nil {
		t.Fatalf("WriteCircuit: %v", err)
	}
	if !strings.Contains(sb.String(), "gate c C a b : 3 2") {
		t.Errorf("serialised circuit missing C gate:\n%s", sb.String())
	}
}

// TestTraceAccessorsRejectOutOfRangeEvents: an event id outside [0,n)
// names no instantiation in any period, so Time, Reached and Parent
// answer false instead of reading a neighbouring period's row or
// panicking.
func TestTraceAccessorsRejectOutOfRangeEvents(t *testing.T) {
	g, err := tsg.LoadGraph(filepath.Join("testdata", "oscillator.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	tr, err := tsg.Simulate(g, 3)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	n := g.NumEvents()
	for _, e := range []tsg.EventID{-1, tsg.EventID(n), tsg.EventID(n + 3), tsg.EventID(2*n + 1)} {
		if v, ok := tr.Time(e, 0); ok {
			t.Errorf("Time(%d, 0) = %g, true; want false", e, v)
		}
		if tr.Reached(e, 0) {
			t.Errorf("Reached(%d, 0) = true", e)
		}
		if _, _, _, ok := tr.Parent(e, 0); ok {
			t.Errorf("Parent(%d, 0) reported a parent", e)
		}
	}
}

// TestSimulateFromParents: every trace the public API returns answers
// Parent, and the answer is the max-predecessor the reference kernel
// records during its walk.
func TestSimulateFromParents(t *testing.T) {
	g, err := tsg.LoadGraph(filepath.Join("testdata", "oscillator.tsg"))
	if err != nil {
		t.Fatalf("LoadGraph: %v", err)
	}
	const periods = 4
	parents := 0
	for _, origin := range g.RepetitiveEvents() {
		got, err := tsg.SimulateFrom(g, origin, periods)
		if err != nil {
			t.Fatalf("SimulateFrom: %v", err)
		}
		want, err := timesim.ReferenceRunFrom(g, origin, timesim.Options{Periods: periods})
		if err != nil {
			t.Fatalf("ReferenceRunFrom: %v", err)
		}
		for p := 0; p < periods; p++ {
			for e := 0; e < g.NumEvents(); e++ {
				id := tsg.EventID(e)
				ge, gp, ga, gok := got.Parent(id, p)
				we, wp, wa, wok := want.Parent(id, p)
				if ge != we || gp != wp || ga != wa || gok != wok {
					t.Fatalf("origin %s: Parent(%s_%d) = (%d,%d,%d,%v), want (%d,%d,%d,%v)",
						g.Event(origin).Name, g.Event(id).Name, p, ge, gp, ga, gok, we, wp, wa, wok)
				}
				if gok {
					parents++
				}
			}
		}
	}
	if parents == 0 {
		t.Fatal("no instantiation had a parent")
	}
}
